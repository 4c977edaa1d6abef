"""Slow exact reference implementations that the library's fast paths are
tested against.  They are kept here, not in the library, on purpose."""

from __future__ import annotations

import csv
import math
from typing import Dict, Optional, Tuple

import numpy as np

from vbesov.atoms import (COEFF_FLOOR, AtomDescriptor, AtomicDecomposition,
                          Key, measured_kernel_constant)
from vbesov.errors import ParameterError
from vbesov.frame import (CalderonFrame, RadialProfile, synthesize_Phi,
                          synthesize_phi_t)
from vbesov.grid import (GridFunction, GridSpec, cubes_per_axis, from_spectrum,
                         spectrum, zero_function)
from vbesov.luxemburg import MAX_ITER, RTOL, NormResult, RowNorms, ScaleLadder

# t^-s(x) as the log terms of the solver against the power multiplied in:
# the two round differently (4.4e-16 measured on the profiles, 2.3e-16 on
# the coefficient norms of `tests/test_atoms.py`)
POWER_WEIGHT_RTOL = 2e-15


def solve_luxemburg_bisection(vals, expo, weights, rtol: float = RTOL,
                              max_iter: int = MAX_ITER) -> NormResult:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for nonnegative v, positive e.

    Returns 0 when the modular of the raw values vanishes.  The root is found
    for v / max|v| and scaled back (the norm is homogeneous), so the powers
    neither overflow nor underflow at any magnitude float64 holds.
    """
    vals = np.abs(np.asarray(vals, dtype=float))
    # broadcast against the grid shape before flattening (2-D fields are (N, N))
    expo = np.broadcast_to(np.asarray(expo, dtype=float), vals.shape).reshape(-1)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), vals.shape).reshape(-1)
    vals = vals.reshape(-1)
    if np.any(expo <= 0):
        raise ParameterError("exponents must be positive")

    scale = float(vals.max(initial=0.0))
    if scale == 0.0:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    terms = weights * (vals / scale) ** expo
    R = float(terms.sum())
    if R == 0.0:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))

    emin, emax = float(expo.min()), float(expo.max())
    lo = min(R ** (1.0 / emin), R ** (1.0 / emax))
    hi = max(R ** (1.0 / emin), R ** (1.0 / emax))

    def modular_at(lam: float) -> float:
        return float(np.sum(terms * np.exp(-expo * math.log(lam))))

    # roundoff safety: the analytic bracket can miss by an ulp
    guard = 0
    while modular_at(hi) > 1.0 and guard < 8:
        hi *= 1.0 + 1e-12 * 2 ** guard
        guard += 1
    iters = 0
    blo, bhi = lo, hi
    while (bhi - blo) > rtol * bhi and iters < max_iter:
        mid = 0.5 * (blo + bhi)
        if modular_at(mid) > 1.0:
            blo = mid
        else:
            bhi = mid
        iters += 1
    return NormResult(scale * bhi, modular_at(bhi), iters, (scale * lo, scale * hi))


def log_modular_root(L, E, lo: float, hi: float) -> float:
    """The root mu of sum exp(L - E mu) = 1 from the log terms L and
    exponents E of one row, by bisection of [lo, hi] in extended precision
    (np.longdouble) until the midpoint rounds to an end."""
    L, E = np.asarray(L, dtype=np.longdouble), np.asarray(E, dtype=np.longdouble)
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    while lo < (mid := (lo + hi) / 2) < hi:
        if np.exp(L - E * mid).sum() > 1:
            lo = mid
        else:
            hi = mid
    return float(mid)


def solve_luxemburg_rows_bisection(vals, expo, weights, rtol: float = RTOL,
                                   max_iter: int = MAX_ITER, report: bool = False,
                                   smoothness=None) -> RowNorms:
    """The rows of a block one by one through `solve_luxemburg_bisection`;
    expo and weights broadcast against one row or the whole block.  With
    smoothness = (s, t), row j is multiplied by the power t[j]^{-s} first."""
    vals = np.asarray(vals, dtype=float)
    if smoothness is not None:
        s, t = smoothness
        vals = vals * np.power(np.reshape(t, (-1,) + (1,) * (vals.ndim - 1)), -np.asarray(s))
    expo = np.broadcast_to(np.asarray(expo, dtype=float), vals.shape)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), vals.shape)
    res = [solve_luxemburg_bisection(v, e, w, rtol, max_iter)
           for v, e, w in zip(vals, expo, weights)]
    return RowNorms(np.array([r.value for r in res]), np.array([r.iterations for r in res]),
                    np.array([r.bracket for r in res]).reshape(-1, 2),
                    np.array([r.modular_at_value for r in res]) if report else None)


def identity_residual_per_node(profile: RadialProfile, ladder: ScaleLadder,
                               xi_max: float, n_samples: int = 6000) -> float:
    """max over the band of |FPhi(xi) + sum_k Fphi(t_k xi) w_k - 1|, one
    `phi_hat` call per ladder node on its slice of the annulus."""
    s = np.geomspace(xi_max * 1e-4, xi_max, n_samples)
    total = profile.Phi_hat(s)
    for t, w in zip(ladder.t, ladder.weights):
        i, j = np.searchsorted(s, (0.5 * (1 - 1e-9) / t, 2.0 * (1 + 1e-9) / t))
        total[i:j] += w * profile.phi_hat(t * s[i:j])
    return float(np.max(np.abs(total - 1.0)))


def pairing_residual_per_node(profile: RadialProfile, ladder: ScaleLadder,
                              xi_max: float, n_samples: int = 6000) -> float:
    """max over the band of |FPsi(xi) FPhi(xi) + sum_k Fpsi(t_k xi)
    Fphi(t_k xi) w_k - 1|, one `psi_hat` and one `phi_hat` call per ladder
    node on its slice of the annulus."""
    s = np.geomspace(xi_max * 1e-4, xi_max, n_samples)
    total = profile.Psi_hat(s) * profile.Phi_hat(s)
    for t, w in zip(ladder.t, ladder.weights):
        i, j = np.searchsorted(s, (0.5 * (1 - 1e-9) / t, 2.0 * (1 + 1e-9) / t))
        total[i:j] += w * profile.psi_hat(t * s[i:j]) * profile.phi_hat(t * s[i:j])
    return float(np.max(np.abs(total - 1.0)))


def scale_profile_per_node(spec: GridSpec, F: np.ndarray, band, level0: np.ndarray,
                           ladder: ScaleLadder, alpha, p, a: Optional[float] = None,
                           log_weights: bool = False):
    """(node values, level-0 value) of a scale profile, one ladder node at a
    time: multiplier band(t) times F, |.| t^-alpha(x), the Peetre maximal
    function when a is given, then the Luxemburg norm with the exponent as
    an array.  With log_weights (and no maximal step) t^-alpha(x) enters
    each one-row solve as its logs (`smoothness`), alpha as the library
    passes it, in place of the power; the power path is within
    POWER_WEIGHT_RTOL of it."""
    from vbesov.besov import _exponent, peetre_maximal
    from vbesov.luxemburg import solve_luxemburg, solve_luxemburg_rows

    h = spec.spacing ** spec.dimension
    pv = p.grid_values()

    def norm(multiplier, t, weight):
        g = from_spectrum(spec, multiplier * F).abs_samples()
        if log_weights:
            return solve_luxemburg_rows(g[None], pv, h,
                                        smoothness=(_exponent(alpha), [t])).values[0]
        g = g * weight
        if a is not None:
            g = peetre_maximal(spec, g, t, a)
        return solve_luxemburg(g, pv, h).value

    def weight(t):
        if alpha.is_constant:
            return np.asarray(t ** (-alpha.cached_min))
        return np.power(t, -alpha.grid_values())

    return (np.array([norm(band(t), t, weight(t)) for t in ladder.t]),
            norm(level0, 1.0, 1.0))


def identity_residual_full_grid(profile: RadialProfile, ladder: ScaleLadder,
                                xi_max: float, n_samples: int = 6000) -> float:
    """max over the band of |FPhi(xi) + sum_k Fphi(t_k xi) w_k - 1|."""
    s = np.geomspace(xi_max * 1e-4, xi_max, n_samples)
    total = profile.Phi_hat(s)
    for t, w in zip(ladder.t, ladder.weights):
        total = total + w * profile.phi_hat(t * s)
    return float(np.max(np.abs(total - 1.0)))


def peetre_maximal_bruteforce(spec: GridSpec, g: np.ndarray, t: float,
                              a: float) -> np.ndarray:
    """max over grid y of g(y) / (1 + d(x,y)/t)^a with d the periodic distance.

    Exact O(M^2) maximum over all node pairs; 1-D uses a circulant gather,
    2-D falls back to row blocks.
    """
    g = np.asarray(g, dtype=float)
    if spec.dimension == 1:
        N = spec.points_per_axis
        off = np.arange(N) * spec.spacing
        d = np.minimum(off, spec.box_length - off)
        K = (1.0 + d / t) ** (-a)
        ar = np.arange(N, dtype=np.int64)
        W = K[(ar[None, :] - ar[:, None]) % N]
        W *= g.reshape(1, N)
        return W.max(axis=1)
    L = spec.box_length
    gf = g.reshape(-1)
    coords = spec.coords().reshape(-1, 2)
    out = np.empty(coords.shape[0])
    block = max(1, 2 ** 22 // coords.shape[0])
    for start in range(0, coords.shape[0], block):
        sl = slice(start, start + block)
        dx = np.abs(coords[sl, None, 0] - coords[None, :, 0])
        dy = np.abs(coords[sl, None, 1] - coords[None, :, 1])
        dx = np.minimum(dx, L - dx)
        dy = np.minimum(dy, L - dy)
        W = (1.0 + np.sqrt(dx ** 2 + dy ** 2) / t) ** (-a)
        out[sl] = (W * gf[None, :]).max(axis=1)
    return out.reshape(spec.shape)


def analyze_eager(f: GridFunction, frame: CalderonFrame, V: Optional[int] = None,
                  K: int = 2, L: int = 0, gamma: float = 3.0
                  ) -> Tuple[Dict[Key, float], Dict[Key, AtomDescriptor]]:
    """Atomic analysis that builds every atom as a full-grid array, as the
    {(v, m): lambda} and {(v, m): atom} dicts over every cube of levels 0..V.

    One FFT pair per ladder node per nonzero cube.  Coefficients below the
    numerical floor are exact zeros with zero atoms.
    """
    ladder = frame.ladder
    if V is None:
        V = ladder.octaves
    spec = f.spec

    n = spec.dimension
    h = spec.spacing ** n
    profile = frame.profile
    C_phi = measured_kernel_constant(synthesize_phi_t(frame, 1.0), K)
    C_Phi = measured_kernel_constant(synthesize_Phi(frame), K)

    F = spectrum(f)
    sr = spec.freq_radius()
    zero = zero_function(spec, tag="zero-atom")

    coeffs: Dict[Key, float] = {}
    atoms: Dict[Key, AtomDescriptor] = {}

    def cube_sums(abs2: np.ndarray, nc: int) -> np.ndarray:
        spc = spec.points_per_axis // nc
        if n == 1:
            return abs2.reshape(nc, spc).sum(axis=1) * h
        return abs2.reshape(nc, spc, nc, spc).sum(axis=(1, 3)) * h

    def emit_level(v, nodes_t, nodes_w, analysis_specs, synth_specs, const):
        nc = cubes_per_axis(spec, v)
        m0 = -(nc // 2)
        spc = spec.points_per_axis // nc
        gs = [from_spectrum(spec, A * F).samples for A in analysis_specs]
        lam2 = None
        for g, w in zip(gs, nodes_w):
            cs = cube_sums(np.abs(g) ** 2, nc)
            lam2 = cs * w if lam2 is None else lam2 + cs * w
        lam = const * np.sqrt(lam2)
        lam[lam < COEFF_FLOOR] = 0.0

        it = np.ndindex(*lam.shape)
        for j in it:
            midx = tuple(jj + m0 for jj in j)
            key = (v, midx)
            coeffs[key] = float(lam[j])
            if lam[j] == 0.0:
                atoms[key] = AtomDescriptor(v, midx, zero, K, L, gamma)
                continue
            acc = np.zeros(spec.shape, dtype=np.complex128)
            sl = tuple(slice(jj * spc, (jj + 1) * spc) for jj in j)
            for g, w, S in zip(gs, nodes_w, synth_specs):
                masked = np.zeros(spec.shape, dtype=np.complex128)
                masked[sl] = g[sl]
                acc += w * from_spectrum(spec, S * spectrum(GridFunction(spec, masked))).samples
            atoms[key] = AtomDescriptor(
                v, midx, GridFunction(spec, acc / lam[j]), K, L, gamma)

    # level 0: Psi / Phi pair, no t-integral
    emit_level(0, [1.0], [1.0],
               [profile.Psi_hat(sr)], [profile.Phi_hat(sr)], C_Phi)
    # levels 1..V: psi_t / phi_t over the octave nodes
    for v in range(1, V + 1):
        sl = ladder.octave_slice(v)
        ts, ws = ladder.t[sl], ladder.weights[sl]
        emit_level(v, ts, ws,
                   [profile.psi_hat(t * sr) for t in ts],
                   [profile.phi_hat(t * sr) for t in ts], C_phi)

    return coeffs, atoms


def synthesize_atoms(spec: GridSpec, coefficients: Dict[Key, float],
                     atoms: Dict[Key, AtomDescriptor]) -> GridFunction:
    """sum lambda * atom over the nonzero coefficients, key after key in
    sorted order: the atom-by-atom sum that `atoms.synthesize` collapses."""
    out = np.zeros(spec.shape, dtype=np.complex128)
    for key in sorted(coefficients):
        if coefficients[key] != 0.0:
            out += coefficients[key] * atoms[key].samples.samples
    return GridFunction(spec, out, tag="synthesized")


def level_lattices_unskipped(f: GridFunction, frame: CalderonFrame, V: int,
                             K: int = 2) -> list:
    """The coefficient lattices of levels 0..V with no level proven zero from
    the spectrum: every level's bands transformed and summed over its cubes
    (`_cube_energy`, multipliers from one profile call per node), then the
    floor applied."""
    from vbesov.atoms import _cube_energy

    spec, profile, ladder = f.spec, frame.profile, frame.ladder
    F = spectrum(f)
    sr = spec.freq_radius()
    out = []
    for v in range(V + 1):
        if v == 0:
            ws, analysis, kernel = np.ones(1), profile.Psi_hat(sr)[None], synthesize_Phi(frame)
        else:
            sl = ladder.octave_slice(v)
            ws, kernel = ladder.weights[sl], synthesize_phi_t(frame, 1.0)
            analysis = np.stack([profile.psi_hat(t * sr) for t in ladder.t[sl]])
        lam = measured_kernel_constant(kernel, K) * np.sqrt(
            _cube_energy(spec, F, v, ws, analysis))
        lam[lam < COEFF_FLOOR] = 0.0
        out.append(lam)
    return out


def synthesize_spatial(dec: AtomicDecomposition) -> GridFunction:
    """The collapsed sum of an analysed decomposition in the spatial domain:
    per level one batched inverse FFT of the masked node products, then the
    nodes added node after node."""
    from vbesov.atoms import _expand, _level
    from vbesov.grid import band_rows, from_spectrum_rows, mirror, spectrum_rows

    spec = dec.spec
    out = np.zeros(spec.shape, dtype=np.complex128)
    for v in range(dec.V + 1):
        mask = _expand(spec, dec.levels[v] != 0.0)
        if not mask.any():
            continue
        ws, synth, analysis = _level(dec.frame, v)
        parts = np.where(mask, band_rows(spec, analysis, dec.f_spectrum), 0.0)
        spectrum_rows(spec, parts, out=parts)
        parts *= mirror(spec, synth)
        for w, part in zip(ws, from_spectrum_rows(spec, parts, out=parts)):
            out += w * part
    return GridFunction(spec, out, tag="synthesized")


def kernel_profile_full(f: GridFunction, kernel, alpha, p, a: Optional[float] = None):
    """`besov._kernel_profile` in the full complex layout, as every input ran
    it before real input moved to the half spectrum: the complex `fftn` of
    f, the multipliers on the full grid, one batched complex `ifftn` per
    octave, then `np.abs`."""
    from vbesov.besov import _exponent, _scale_profile
    from vbesov.grid import band_rows, mirror

    spec, ladder = f.spec, kernel.ladder
    F = spectrum(f)

    def magnitudes(multipliers):
        return np.abs(band_rows(spec, mirror(spec, multipliers), F))

    rows = (magnitudes(kernel.multipliers(ladder.t[ladder.octave_slice(v)]))
            for v in range(1, ladder.octaves + 1))
    return _scale_profile(spec, rows, magnitudes(kernel.level0[None]), ladder,
                          _exponent(alpha), _exponent(p), a)


def write_csv_rows(f: GridFunction, path: str) -> None:
    """`grid.write_csv` one `csv.writer` row per sample."""
    n = f.spec.dimension
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"][:n] + ["re", "im"])
        v = f.samples.reshape(-1)
        for c, re, im in zip(f.spec.coords().reshape(-1, n).tolist(),
                             v.real.tolist(), v.imag.tolist()):
            w.writerow([*map(repr, c), repr(re), repr(im)])


def export_coefficients_rows(dec: AtomicDecomposition, path: str) -> None:
    """`atoms.export_coefficients` without atoms, one `csv.writer` row per
    cube of the `coefficients` view, sorted by key."""
    n = dec.spec.dimension
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v"] + [f"m{i}" for i in range(n)] + ["lambda"])
        for (v, m) in sorted(dec.coefficients):
            w.writerow([v, *m, repr(dec.coefficients[(v, m)])])


def sequence_norm_b_loop(dec: AtomicDecomposition, alpha, p, q, form: str = "continuous",
                         half_dim_sign: float = 1.0, log_weights: bool = False) -> float:
    """The coefficient-space norm by hand: per level a one-row Luxemburg
    solve (discrete), or per octave the weights t^{-(alpha+n/2)} times the
    level's indicator sum, one row solve, then the octave-block t-norm
    (continuous).  With log_weights the continuous form solves node by node,
    one-row calls with the weights as their logs (`smoothness`); the power
    path is within POWER_WEIGHT_RTOL of it.  The level norms collapse to the
    fixed exponent q(0) with the library's one-row solve at that scalar
    exponent."""
    from vbesov.luxemburg import octave_block_norm, solve_luxemburg, solve_luxemburg_rows

    ladder, spec = dec.ladder, dec.spec
    n = spec.dimension
    h = spec.spacing ** n
    pv = p.grid_values()
    half = half_dim_sign * n / 2.0

    level0 = solve_luxemburg(dec.indicator_sum(0), pv, h).value
    levels = [dec.indicator_sum(v) for v in range(1, dec.V + 1)]
    if all(S.max() == 0 for S in levels):
        return level0

    av = alpha.grid_values()
    if form == "discrete":
        norms = [solve_luxemburg(2.0 ** (v * (av + half)) * S, pv, h).value
                 for v, S in enumerate(levels, start=1)]
        return level0 + float(solve_luxemburg_rows(np.array([norms]), float(q.limit_value),
                                                   1.0).values[0])

    node_norms = np.zeros(ladder.t.size)  # octaves beyond V stay zero
    for v, S in enumerate(levels, start=1):
        sl = ladder.octave_slice(v)
        if log_weights:
            node_norms[sl] = [solve_luxemburg_rows(S[None], pv, h, smoothness=(av + half, [t]))
                              .values[0] for t in ladder.t[sl]]
            continue
        ts = ladder.t[sl].reshape((-1,) + (1,) * n)
        node_norms[sl] = solve_luxemburg_rows(ts ** (-(av + half)) * S, pv, h).values
    return level0 + octave_block_norm(node_norms, ladder, q)
