"""Atoms, the constructive atomic analysis/synthesis, and the coefficient norm.

Analysis follows the constructive route: with the synthesis pair (Phi, phi)
and its analysis dual (Psi, psi) satisfying
    FPsi FPhi + int_0^1 Fpsi(t.) Fphi(t.) dt/t = 1,
the coefficient of the cube Q_{v,m} is
    lambda_{v,m} = C_phi (int_octave int_Q |psi_t * f|^2 dy dt/t)^{1/2}
and the atom is the same double integral against phi_t(x-y), divided by
lambda (zero branch when lambda = 0).  Summing atoms over all cubes
reproduces the ladder-quadratured reproducing identity exactly, so the
round-trip error is the frame residual plus deep-scale truncation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import HypothesisViolationError, ParameterError
from .exponents import ExponentField
from .frame import CalderonFrame, synthesize_Phi, synthesize_phi_t
from .grid import (GridFunction, GridSpec, cubes_per_axis, finest_aligned_level,
                   from_spectrum, spectral_derivative, spectrum, zero_function)
from .luxemburg import ScaleLadder, mixed_core, solve_luxemburg

COEFF_FLOOR = 1e-14
SUPPORT_TOL = 1e-6
DIFF_TOL = 1e-6
MOMENT_TOL = 1e-6

Key = Tuple[int, Tuple[int, ...]]


def _multi_indices(dimension: int, max_order: int):
    if dimension == 1:
        for b in range(max_order + 1):
            yield (b,)
    else:
        for b1 in range(max_order + 1):
            for b2 in range(max_order + 1 - b1):
                yield (b1, b2)


@dataclass(frozen=True)
class AtomDescriptor:
    """One atom with its cube address, parameters, and measured conditions."""

    v: int
    m: Tuple[int, ...]
    samples: GridFunction
    K: int
    L: int
    gamma: float
    validation: Optional[dict] = None


def validate_atom(a: GridFunction, v: int, m, K: int, L: int, gamma: float,
                  derivative_constant: float = 1.0,
                  support_tolerance: float = SUPPORT_TOL) -> AtomDescriptor:
    """Measure the three atom conditions and report margins.

    Failures are reported in the validation block, never raised.  The
    derivative bound is checked against derivative_constant * 2^{v(|b|+1/2)};
    the measured inflation (max ratio to the unit-constant bound) is always
    reported so constant-inflated atoms can be accepted explicitly.  The
    support condition is a mass-fraction tolerance (default 1e-6): atoms
    synthesized from spectrum-supported kernels are never exactly compactly
    supported, so their leaked fraction is measured and gated, not assumed.
    """
    if K < 0 or L < -1 or gamma <= 1:
        raise ParameterError("atom parameters need K >= 0, L >= -1, gamma > 1")
    m = tuple(int(x) for x in np.atleast_1d(m))
    spec = a.spec
    n = spec.dimension
    side = 2.0 ** (-v)
    h = spec.spacing ** n

    # support: |a|-mass fraction outside gamma Q_{v,m}, periodic wrap
    absval = a.abs_samples()
    total = float(absval.sum() * h)
    if total == 0.0:
        support_fraction = 0.0
    else:
        inside = np.ones(spec.shape, dtype=bool)
        coords = spec.coords()
        for ax in range(n):
            c_ax = coords if n == 1 else coords[..., ax]
            center = (m[ax] + 0.5) * side
            d = np.abs(c_ax - center)
            d = np.minimum(d, spec.box_length - d)
            inside &= d <= gamma * side / 2
        support_fraction = float(absval[~inside].sum() * h / total)

    ratios = {}
    for beta in _multi_indices(n, K):
        order = sum(beta)
        da = spectral_derivative(a, beta if n == 2 else beta[0])
        bound = 2.0 ** (v * (order + 0.5))
        ratios["".join(map(str, beta))] = float(np.max(da.abs_samples()) / bound)
    inflation = max(ratios.values()) if ratios else 0.0

    moments = {}
    pass_moments = True
    if v >= 1 and L >= 0:
        x = spec.axis_coords()
        coords = spec.coords()
        for beta in _multi_indices(n, L):
            if n == 1:
                mono = x ** beta[0]
            else:
                mono = coords[..., 0] ** beta[0] * coords[..., 1] ** beta[1]
            mom = abs(complex(np.sum(mono * a.samples) * h))
            tol = MOMENT_TOL * 2.0 ** (-v / 2 - v * sum(beta))
            moments["".join(map(str, beta))] = {"value": mom, "tolerance": tol}
            pass_moments &= mom <= tol

    validation = {
        "support_fraction": support_fraction,
        "support_tolerance": support_tolerance,
        "pass_support": support_fraction <= support_tolerance,
        "derivative_ratios": ratios,
        "derivative_inflation": inflation,
        "pass_derivatives": inflation <= derivative_constant * (1 + DIFF_TOL),
        "moments": moments,
        "pass_moments": pass_moments,
    }
    validation["pass"] = (validation["pass_support"]
                          and validation["pass_derivatives"]
                          and validation["pass_moments"])
    return AtomDescriptor(v, m, a, K, L, gamma, validation)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Coefficients and atoms indexed by dyadic cubes, levels 0..V."""

    spec: GridSpec
    ladder: ScaleLadder
    V: int
    K: int
    L: int
    gamma: float
    frame_id: str
    C_phi: float
    C_Phi: float
    coefficients: Dict[Key, float]
    atoms: Dict[Key, AtomDescriptor] = field(default_factory=dict)

    def coefficient_array(self, v: int) -> np.ndarray:
        """lambda_{v,.} as an array over the cube lattice of level v."""
        nc = cubes_per_axis(self.spec, v)
        m0 = -(nc // 2)
        if self.spec.dimension == 1:
            out = np.zeros(nc)
            for (lv, m), lam in self.coefficients.items():
                if lv == v:
                    out[m[0] - m0] = lam
        else:
            out = np.zeros((nc, nc))
            for (lv, m), lam in self.coefficients.items():
                if lv == v:
                    out[m[0] - m0, m[1] - m0] = lam
        return out

    def indicator_sum(self, v: int) -> np.ndarray:
        """sum_m lambda_{v,m} chi_{v,m} sampled on the grid."""
        lam = self.coefficient_array(v)
        nc = cubes_per_axis(self.spec, v)
        spc = self.spec.points_per_axis // nc
        if self.spec.dimension == 1:
            return np.repeat(lam, spc)
        return np.repeat(np.repeat(lam, spc, axis=0), spc, axis=1)


def measured_kernel_constant(kernel: GridFunction, K: int) -> float:
    """max over |beta| <= K of sup |D^beta kernel| (the coefficient constant)."""
    best = 0.0
    for beta in _multi_indices(kernel.spec.dimension, K):
        da = spectral_derivative(kernel, beta if kernel.spec.dimension == 2 else beta[0])
        best = max(best, float(np.max(da.abs_samples())))
    return best


def _check_target(K: int, L: int, alpha: ExponentField) -> None:
    need_K = math.floor(alpha.cached_max) + 1
    if K < need_K:
        raise HypothesisViolationError(
            f"K = {K} violates K >= [alpha+]+1 = {need_K}")
    need_L = max(-1, math.floor(-alpha.cached_min))
    if L < need_L:
        raise HypothesisViolationError(
            f"L = {L} violates L >= max(-1, [-alpha-]) = {need_L}")


def analyze(f: GridFunction, frame: CalderonFrame, V: Optional[int] = None,
            K: int = 2, L: int = 0, gamma: float = 3.0,
            target_alpha: Optional[ExponentField] = None,
            keep_atoms: bool = True) -> AtomicDecomposition:
    """Constructive atomic analysis of f down to level V.

    When a target smoothness field is supplied, the (K, L) hypotheses of the
    decomposition theorem are enforced up front.  Coefficients below the
    numerical floor are stored as exact zeros with zero atoms.
    """
    ladder = frame.ladder
    if V is None:
        V = ladder.octaves
    if V > ladder.octaves:
        raise ParameterError(f"V = {V} exceeds the ladder's {ladder.octaves} octaves")
    spec = f.spec
    finest = finest_aligned_level(spec)
    if V > finest:
        raise ParameterError(
            f"V = {V} needs level-{V} cubes, but with grid spacing {spec.spacing:g} "
            f"the finest aligned level is {finest}; lower the octaves or raise the points")
    if target_alpha is not None:
        _check_target(K, L, target_alpha)

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
            if not keep_atoms:
                continue
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
               [profile.Psi_hat(sr)], [frame.FPhi], C_Phi)
    # levels 1..V: psi_t / phi_t over the octave nodes
    for v in range(1, V + 1):
        sl = ladder.octave_slice(v)
        ts, ws = ladder.t[sl], ladder.weights[sl]
        emit_level(v, ts, ws,
                   [profile.psi_hat(t * sr) for t in ts],
                   [profile.phi_hat(t * sr) for t in ts], C_phi)

    frame_id = f"bump{profile.params.order}-V{ladder.octaves}-J{ladder.nodes_per_octave}"
    return AtomicDecomposition(spec, ladder, V, K, L, gamma, frame_id,
                               C_phi, C_Phi, coeffs, atoms)


def synthesize(dec: AtomicDecomposition) -> GridFunction:
    """sum_{v,m} lambda_{v,m} rho_{v,m} pointwise on the grid."""
    if set(dec.coefficients) != set(dec.atoms):
        raise ParameterError("coefficient/atom key sets disagree")
    out = np.zeros(dec.spec.shape, dtype=np.complex128)
    for key, lam in dec.coefficients.items():
        if lam != 0.0:
            out += lam * dec.atoms[key].samples.samples
    return GridFunction(dec.spec, out, tag="synthesized")


def sequence_norm_b(dec: AtomicDecomposition, alpha: ExponentField,
                    p: ExponentField, q: ExponentField, form: str = "continuous",
                    half_dim_sign: float = 1.0) -> float:
    """Coefficient-space norm of the decomposition.

    form="continuous" runs the ladder mixed norm of the octave blocks
    t^{-(alpha(.)+n/2)-1/q(t)} sum_m lambda chi; form="discrete" collapses to
    the fixed exponent q(0) with weights 2^{v(alpha(.)+n/2)}.  half_dim_sign
    flips the n/2 term's sign for the alternative normalization.
    """
    spec = dec.spec
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
        q0 = float(q.limit_value)
        acc = 0.0
        for v, S in enumerate(levels, start=1):
            weight = 2.0 ** (v * (av + half))
            acc += solve_luxemburg(weight * S, pv, h).value ** q0
        return level0 + acc ** (1.0 / q0)
    if form != "continuous":
        raise ParameterError(f"unknown sequence-norm form {form!r}")

    ladder = dec.ladder
    terms, q_levels = [], []
    for v, S in enumerate(levels, start=1):
        sl = ladder.octave_slice(v)
        ts = ladder.t[sl]
        qs = np.asarray(q.value_at(ts), dtype=float)
        node_norms = np.array([
            solve_luxemburg(t ** (-(av + half)) * S, pv, h).value for t in ts
        ])
        vals = ts ** (-1.0 / qs) * node_norms
        terms.append((vals, qs, ts * ladder.weights[sl]))
        q_levels.append(float(q.value_at(ScaleLadder.octave_midpoint(v))))
    return level0 + mixed_core(terms, q_levels)


# -- import / export ------------------------------------------------------------


def _atom_filename(v: int, m: Tuple[int, ...]) -> str:
    return "atom_v%d_m%s.vbgf" % (v, "_".join(str(x) for x in m))


def export_coefficients(dec: AtomicDecomposition, path: str,
                        atoms_dir: Optional[str] = None) -> None:
    """CSV of (v, m..., lambda), rows sorted by key; optionally one raw
    GridFunction file per nonzero atom under atoms_dir."""
    import os
    from .grid import write_raw
    n = dec.spec.dimension
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v"] + [f"m{i}" for i in range(n)] + ["lambda"])
        for (v, m) in sorted(dec.coefficients):
            w.writerow([v, *m, repr(dec.coefficients[(v, m)])])
    if atoms_dir is not None:
        os.makedirs(atoms_dir, exist_ok=True)
        for (v, m), desc in dec.atoms.items():
            if dec.coefficients[(v, m)] != 0.0:
                write_raw(desc.samples, os.path.join(atoms_dir, _atom_filename(v, m)))


def import_coefficients(path: str, spec: GridSpec, ladder: ScaleLadder,
                        K: int = 2, L: int = 0, gamma: float = 3.0,
                        atoms_dir: Optional[str] = None) -> AtomicDecomposition:
    """Rebuild a decomposition from the CSV (plus raw atom files if present)."""
    import os
    from .grid import read_raw
    coeffs: Dict[Key, float] = {}
    V = 0
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        n = len(header) - 2
        if n != spec.dimension:
            raise ParameterError("CSV dimensionality does not match the grid")
        for row in r:
            v = int(row[0])
            m = tuple(int(x) for x in row[1:-1])
            coeffs[(v, m)] = float(row[-1])
            V = max(V, v)
    atoms: Dict[Key, AtomDescriptor] = {}
    if atoms_dir is not None:
        zero = zero_function(spec, tag="zero-atom")
        for (v, m), lam in coeffs.items():
            fname = os.path.join(atoms_dir, _atom_filename(v, m))
            if lam == 0.0:
                atoms[(v, m)] = AtomDescriptor(v, m, zero, K, L, gamma)
            elif os.path.exists(fname):
                atoms[(v, m)] = AtomDescriptor(v, m, read_raw(fname), K, L, gamma)
            else:
                raise ParameterError(f"missing atom file {fname}")
    return AtomicDecomposition(spec, ladder, V, K, L, gamma, "imported",
                               float("nan"), float("nan"), coeffs, atoms)
