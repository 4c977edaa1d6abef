"""Atoms, the constructive atomic analysis/synthesis, and the coefficient norm.

Analysis follows the constructive route: with the synthesis pair (Phi, phi)
and its analysis dual (Psi, psi) satisfying
    FPsi FPhi + int_0^1 Fpsi(t.) Fphi(t.) dt/t = 1,
the coefficient of the cube Q_{v,m} is
    lambda_{v,m} = C_phi (int_octave int_Q |psi_t * f|^2 dy dt/t)^{1/2}
and the atom is the same double integral against phi_t(x-y), divided by
lambda (zero branch when lambda = 0).  Summing atoms over all cubes
reproduces the ladder-quadratured reproducing identity exactly, so the
round-trip error is the frame residual plus deep-scale truncation.  The cubes
of a level tile the box, so that sum is one spectral product per ladder node
of the band masked to the nonzero cubes.  When every cube of a level is
nonzero the mask is the whole band, whose spectrum is A F, and the level
adds sum_j w_j S_j A_j F with no transform: the discretized continuous
Calderon formula, synthesis times analysis multiplier, summed on the
frame's half grid, where the multipliers stay, and applied to F as one row.
The products of every node and level share one inverse FFT; atoms are built
only on request.

By Parseval no lambda of level v exceeds
    C (sum_j w_j sum_k A_j(k)^2 |F_k|^2 / L^n)^{1/2},
so a level whose bound lies below half the coefficient floor is stored as
exact zeros without its band transform.  The multipliers are real and
radial, so a real f has a real reconstruction: `analyze` records whether
f's samples are real, and `synthesize` then returns the real part.

The coefficients of level v are one read-only lattice of shape (nc_v,)^n,
cube m at position m + nc_v/2.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .besov import _scale_profile
from .errors import HypothesisViolationError, ParameterError
from .exponents import ExponentField
from .frame import CalderonFrame, synthesize_Phi, synthesize_phi_t
from .grid import (GridFunction, GridSpec, _multi_indices, apply_multipliers, band_l2_norms,
                   band_rows, cubes_per_axis, finest_aligned_level, from_spectrum_rows,
                   spectral_derivative, spectrum, spectrum_rows, zero_function)
from .luxemburg import ScaleLadder, octave_block_norm, solve_luxemburg_rows

COEFF_FLOOR = 1e-14
SUPPORT_TOL = 1e-6
DIFF_TOL = 1e-6
MOMENT_TOL = 1e-6

Key = Tuple[int, Tuple[int, ...]]


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


def _check_atom_parameters(K: int, L: int, gamma: float) -> None:
    if K < 0 or L < -1 or not 1 < gamma < math.inf:
        raise ParameterError("atom parameters need K >= 0, L >= -1, gamma > 1 finite; "
                             f"got K = {K}, L = {L}, gamma = {gamma}")


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
    _check_atom_parameters(K, L, gamma)
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
        for ax, c_ax in enumerate(spec.axes()):
            center = (m[ax] + 0.5) * side
            d = np.abs(c_ax - center)
            d = np.minimum(d, spec.box_length - d)
            inside &= d <= gamma * side / 2
        support_fraction = float(absval[~inside].sum() * h / total)

    ratios = {}
    for beta in _multi_indices(n, K):
        order = sum(beta)
        da = spectral_derivative(a, beta)
        bound = 2.0 ** (v * (order + 0.5))
        ratios["".join(map(str, beta))] = float(np.max(da.abs_samples()) / bound)
    inflation = max(ratios.values()) if ratios else 0.0

    moments = {}
    pass_moments = True
    if v >= 1 and L >= 0:
        for beta in _multi_indices(n, L):
            mono = math.prod(x ** b for x, b in zip(spec.axes(), beta))
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


def _expand(spec: GridSpec, lattice: np.ndarray) -> np.ndarray:
    """A cube-lattice array sampled on the grid: each cube's value on its points."""
    spc = spec.points_per_axis // lattice.shape[0]
    for ax in range(spec.dimension):
        lattice = np.repeat(lattice, spc, axis=ax)
    return lattice


def _level(frame: CalderonFrame, v: int):
    """(weights, S, A) of level v: the quadrature weights, and the synthesis
    and analysis multipliers on the frame's half grid, one row per node in
    (nodes, *half_shape) blocks; `grid` applies them to F's full layout.

    Level 0 is the Phi/Psi pair with unit weight and no t-integral; level
    v >= 1 runs phi_t/psi_t over the nodes of octave v, Fpsi_t = Fphi_t / c2.
    """
    if v == 0:
        return np.ones(1), frame.level0[None], frame.level0_analysis[None]
    synth = frame.blocks[v - 1]
    return frame.ladder.weights[frame.ladder.octave_slice(v)], synth, synth / frame.profile.c2


def _level_bound(spec: GridSpec, F: np.ndarray, ws: np.ndarray, analysis: np.ndarray,
                 const: float) -> float:
    """An upper bound of every lambda of a level, from the spectrum alone.

    A cube's energy is at most the whole band's, so every lambda is at most
    const * (sum_j w_j ||g_j||_2^2)^{1/2} over the level's nodes, with w the
    weights and g_j = ifft(A_j F) the bands, whose L^2 norms Parseval gives
    (`grid.band_l2_norms`).
    """
    return const * math.sqrt(float(ws @ band_l2_norms(spec, analysis, F) ** 2))


def _cube_energy(spec: GridSpec, F: np.ndarray, v: int, ws: np.ndarray,
                 analysis: np.ndarray) -> np.ndarray:
    """sum over the nodes of level v of w * int_Q |band|^2 for every cube Q
    of the level, the nodes added node after node; ws and analysis are the
    level's weights and analysis multipliers."""
    n = spec.dimension
    nc = cubes_per_axis(spec, v)
    abs2 = np.abs(band_rows(spec, analysis, F))
    abs2 **= 2
    cs = abs2.reshape((-1,) + (nc, spec.points_per_axis // nc) * n) \
        .sum(axis=tuple(range(2, 2 * n + 1, 2))) * spec.spacing ** n
    lam2 = cs[0] * ws[0]
    for c, w in zip(cs[1:], ws[1:]):
        lam2 = lam2 + c * w
    return lam2


def _masked_synthesis(spec: GridSpec, bands: np.ndarray, synth: np.ndarray,
                      weight: np.ndarray) -> np.ndarray:
    """S spectrum(band * weight) for every node of a level, one (nodes, *grid)
    block formed in place of the bands; `weight` is a lattice of the level's
    cubes, each cube's value taken on its grid points."""
    bands *= _expand(spec, weight)
    spectrum_rows(spec, bands, out=bands)
    return apply_multipliers(spec, synth, bands, out=bands)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Coefficients over the dyadic cubes of levels 0..V, and their atoms:
    the output of `analyze`, one analysis of f with one frame.

    `levels[v]` is the read-only lattice of lambda_{v,.}, shape (nc_v,)^n,
    cube m at position m + nc_v/2, and `coefficients` is the {(v, m): lambda}
    view over every cube.  The frame and f's spectrum give `atom(key)`, one
    cube's atom, and `synthesize`, the sum of all of them; `spec` and
    `ladder` are the frame's.  `real_input` records that f's samples are
    real, and makes `synthesize` return a real reconstruction.  Other
    coefficients over the same analysis are `dataclasses.replace(dec,
    levels=...)`.
    """

    V: int
    K: int
    L: int
    gamma: float
    C_phi: float
    C_Phi: float
    levels: Tuple[np.ndarray, ...]
    frame: CalderonFrame = field(repr=False, compare=False)
    f_spectrum: np.ndarray = field(repr=False, compare=False)
    real_input: bool = field(repr=False, compare=False)

    # perfbench/tracer.py counts the atoms a decomposition stores; none is
    # stored, so this stays an empty read-only mapping
    atoms = types.MappingProxyType({})

    def __post_init__(self):
        if len(self.levels) <= self.V:
            raise ParameterError(f"V = {self.V} needs {self.V + 1} coefficient levels, "
                                 f"got {len(self.levels)}")
        levels = []
        for v, lat in enumerate(self.levels):
            shape = (cubes_per_axis(self.spec, v),) * self.spec.dimension
            lat = np.asarray(lat, dtype=float)
            if lat.shape != shape:
                raise ParameterError(f"level {v} needs a coefficient lattice of shape "
                                     f"{shape}, got {lat.shape}")
            if lat.flags.writeable:
                lat = lat.copy()
                lat.flags.writeable = False
            levels.append(lat)
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def spec(self) -> GridSpec:
        return self.frame.spec

    @property
    def ladder(self) -> ScaleLadder:
        return self.frame.ladder

    @functools.cached_property
    def coefficients(self) -> Mapping[Key, float]:
        """Read-only {(v, m): lambda} over every cube of every level."""
        out: Dict[Key, float] = {}
        for v, lat in enumerate(self.levels):
            nc = lat.shape[0]
            cubes = itertools.product(range(-(nc // 2), nc - nc // 2), repeat=lat.ndim)
            out.update(zip([(v, m) for m in cubes], lat.ravel().tolist()))
        return types.MappingProxyType(out)

    def indicator_sum(self, v: int) -> np.ndarray:
        """sum_m lambda_{v,m} chi_{v,m} sampled on the grid."""
        return _expand(self.spec, self.levels[v])

    def atom(self, key: Key) -> AtomDescriptor:
        """The atom of cube `key`: the zero atom for a zero coefficient,
        otherwise the level's bands masked to the cube and synthesized, the
        nodes' inverse FFTs added node after node as the per-cube
        construction does."""
        spec, (v, m) = self.spec, key
        pos = self._position(key)
        lam = float(self.levels[v][pos])
        if lam == 0.0:
            return AtomDescriptor(v, m, zero_function(spec, tag="zero-atom"),
                                  self.K, self.L, self.gamma)
        ws, synth, analysis = _level(self.frame, v)
        cube = np.zeros(self.levels[v].shape)
        cube[pos] = 1.0
        parts = _masked_synthesis(spec, band_rows(spec, analysis, self.f_spectrum), synth, cube)
        acc = np.zeros(spec.shape, dtype=np.complex128)
        for w, part in zip(ws, from_spectrum_rows(spec, parts, out=parts)):
            acc += w * part
        return AtomDescriptor(v, m, GridFunction(spec, acc / lam), self.K, self.L, self.gamma)

    def _position(self, key: Key) -> Tuple[int, ...]:
        """Lattice position of cube `key`; KeyError when no level holds it."""
        v, m = key
        if not 0 <= v < len(self.levels):
            raise KeyError(key)
        nc = self.levels[v].shape[0]
        pos = tuple(int(x) + nc // 2 for x in m)
        if len(pos) != self.spec.dimension or not all(0 <= j < nc for j in pos):
            raise KeyError(key)
        return pos


def measured_kernel_constant(kernel: GridFunction, K: int) -> float:
    """max over |beta| <= K of sup |D^beta kernel| (the coefficient constant),
    one `spectral_derivative` per multi-index."""
    return max((float(np.max(spectral_derivative(kernel, beta).abs_samples()))
                for beta in _multi_indices(kernel.spec.dimension, K)), default=0.0)


def _kernel_constants(frame: CalderonFrame, K: int) -> Tuple[float, float]:
    """(C_phi, C_Phi): `measured_kernel_constant` of phi_1 and of Phi at
    order K, measured once per frame and K and held in `frame.constants`."""
    if K not in frame.constants:
        frame.constants[K] = (measured_kernel_constant(synthesize_phi_t(frame, 1.0), K),
                              measured_kernel_constant(synthesize_Phi(frame), K))
    return frame.constants[K]


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
            target_alpha: Optional[ExponentField] = None) -> AtomicDecomposition:
    """Constructive atomic analysis of f down to level V.

    When a target smoothness field is supplied, the (K, L) hypotheses of the
    decomposition theorem are enforced up front.  Coefficients below the
    numerical floor are stored as exact zeros.  A level whose Parseval
    bound (`_level_bound`) lies below half the floor is all zeros without
    its band transform: that proves every coefficient of it below the
    floor, with room for the rounding of the band path.  No atom is built:
    the decomposition keeps the frame, f's spectrum and whether f's samples
    are real, from which `atom(key)` builds one cube's atom and
    `synthesize` the sum of all of them.
    """
    ladder = frame.ladder
    if V is None:
        V = ladder.octaves
    if V > ladder.octaves:
        raise ParameterError(f"V = {V} exceeds the ladder's {ladder.octaves} octaves")
    spec = f.spec
    if spec != frame.spec:
        raise ParameterError(f"f lives on {spec} but the frame on {frame.spec}")
    finest = finest_aligned_level(spec)
    if V > finest:
        raise ParameterError(
            f"V = {V} needs level-{V} cubes, but with grid spacing {spec.spacing:g} "
            f"the finest aligned level is {finest}; lower the octaves or raise the points")
    _check_atom_parameters(K, L, gamma)
    if target_alpha is not None:
        _check_target(K, L, target_alpha)

    C_phi, C_Phi = _kernel_constants(frame, K)
    F = spectrum(f)

    levels = []
    for v in range(V + 1):
        const = C_Phi if v == 0 else C_phi
        ws, _, analysis = _level(frame, v)
        if _level_bound(spec, F, ws, analysis, const) < COEFF_FLOOR / 2:
            lam = np.zeros((cubes_per_axis(spec, v),) * spec.dimension)
        else:
            lam = const * np.sqrt(_cube_energy(spec, F, v, ws, analysis))
            lam[lam < COEFF_FLOOR] = 0.0
        lam.flags.writeable = False
        levels.append(lam)

    return AtomicDecomposition(V, K, L, gamma, C_phi, C_Phi, tuple(levels), frame, F,
                               real_input=f.is_real())


def synthesize(dec: AtomicDecomposition) -> GridFunction:
    """sum_{v,m} lambda_{v,m} rho_{v,m} pointwise on the grid.

    lambda_{v,m} rho_{v,m} is the level's bands masked to cube Q_{v,m} and
    synthesized, so the sum over the cubes of a level is one spectral
    product per ladder node.  A level with every coefficient nonzero keeps
    whole bands, whose spectra are A F: its sum is sum_j w_j S_j A_j F,
    with no transform.  A level with some nonzero coefficients transforms
    its bands, masks them to those cubes and transforms them back; a level
    with none adds nothing.  The level sums are added as spectra and share
    one inverse FFT.  The multipliers are real and radial, so a real f has
    a real reconstruction: for `real_input` the real part is returned.
    """
    spec = dec.spec
    out = np.zeros(spec.shape, dtype=np.complex128)
    F = dec.f_spectrum
    for v in range(dec.V + 1):
        mask = dec.levels[v] != 0.0
        if not mask.any():
            continue
        ws, synth, analysis = _level(dec.frame, v)
        if mask.all():
            gain = synth * analysis
            gain *= ws.reshape((-1,) + (1,) * spec.dimension)
            out += apply_multipliers(spec, gain.sum(axis=0), F)
        else:
            parts = _masked_synthesis(spec, band_rows(spec, analysis, F), synth, mask)
            for w, part in zip(ws, parts):
                out += w * part
    rec = from_spectrum_rows(spec, out, out=out)
    return GridFunction(spec, rec.real if dec.real_input else rec, tag="synthesized")


def sequence_norm_b(dec: AtomicDecomposition, alpha: ExponentField,
                    p: ExponentField, q: ExponentField, form: str = "continuous",
                    half_dim_sign: float = 1.0) -> float:
    """Coefficient-space norm of the decomposition: `level_sequence_norm` of
    its level sums sum_m lambda chi with s = alpha(.) + n/2; half_dim_sign
    flips the n/2 term's sign."""
    if form not in ("continuous", "discrete"):
        raise ParameterError(f"unknown sequence-norm form {form!r}")
    spec = dec.spec
    s = alpha.grid_values() + half_dim_sign * spec.dimension / 2.0
    return level_sequence_norm(spec, dec.ladder, [dec.indicator_sum(v) for v in range(dec.V + 1)],
                               s, p.grid_values(), q, form)


def level_sequence_norm(spec: GridSpec, ladder: ScaleLadder, levels: List[np.ndarray],
                        s: np.ndarray, p: np.ndarray, q: ExponentField, form: str) -> float:
    """The level-0 term plus the t-norm of levels[1..V], nonnegative grid
    functions, in L^{p(.)} with smoothness s(.) (samples both).

    form="continuous" runs the profile pipeline of `besov` with level v on
    every node of octave v and weights t^{-s(.)}, then the octave-block
    t-norm, and needs V <= the ladder's octaves; form="discrete" weighs
    level v by 2^{v s(.)}, solves all levels as one row block, and collapses
    the t-norm to the fixed exponent q(0).
    """
    h = spec.spacing ** spec.dimension
    if form == "discrete":
        level0, *norms = solve_luxemburg_rows(
            np.stack([2.0 ** (v * s) * S for v, S in enumerate(levels)]), p, h).values.tolist()
        return level0 + float(solve_luxemburg_rows(np.array([norms]), float(q.limit_value),
                                                   1.0).values[0])
    if len(levels) - 1 > ladder.octaves:
        raise ParameterError(f"V = {len(levels) - 1} levels but the ladder has only "
                             f"{ladder.octaves} octaves")
    rows = (np.repeat(S[None], ladder.nodes_per_octave, axis=0) for S in levels[1:])
    prof = _scale_profile(spec, rows, levels[0][None], ladder, s, p)
    return prof.level0 + octave_block_norm(prof.values, ladder, q)


# -- export ---------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _coefficient_template(n: int, sides: Tuple[int, ...]) -> str:
    """The `export_coefficients` text of n-D lattices of the given sides,
    level by level, with one `%r` for each lambda: every key is formatted
    here, once per lattice shape."""
    rows = [",".join(["v"] + [f"m{i}" for i in range(n)] + ["lambda"]) + "\r\n"]
    for v, nc in enumerate(sides):
        ms = [str(m) for m in range(-(nc // 2), nc - nc // 2)]
        rows += (",".join(key) + ",%r\r\n" for key in itertools.product([str(v)], *[ms] * n))
    return "".join(rows)


def export_coefficients(dec: AtomicDecomposition, path: str) -> None:
    """CSV of (v, m..., lambda) over every cube, rows sorted by key, with
    `repr` floats and CRLF line ends as `csv.writer` writes them.  The keys
    are one template per lattice shape (`_coefficient_template`), so a call
    formats only the coefficients."""
    template = _coefficient_template(dec.spec.dimension,
                                     tuple(lat.shape[0] for lat in dec.levels))
    values = itertools.chain.from_iterable(lat.ravel().tolist() for lat in dec.levels)
    with open(path, "w", newline="") as fh:
        fh.write(template % tuple(values))
