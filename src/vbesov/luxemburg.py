"""Modulars, Luxemburg norms, and the mixed sequence norms built from them.

Every norm here is the infimum of lambda with modular(f/lambda) <= 1, found
by bisection on the (nonincreasing) modular.  The initial bracket
[min(R^{1/e-}, R^{1/e+}), max(R^{1/e-}, R^{1/e+})], R = modular(f), always
contains the root; for a constant exponent it collapses and the closed form
R^{1/p} is returned without iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, UnsupportedFeatureError
from .exponents import ExponentField
from .grid import GridFunction, same_grid

RTOL = 1e-10
MAX_ITER = 200


# -- scale ladder -------------------------------------------------------------


@dataclass(frozen=True)
class ScaleLadder:
    """Quadrature ladder for integrals dt/t over t in (0, 1].

    Octave v covers [2^-v, 2^{1-v}]; per-octave Gauss-Legendre nodes in log t,
    so each octave's weights sum to log 2 exactly (up to roundoff).
    Nodes are stored strictly decreasing in t.
    """

    octaves: int
    nodes_per_octave: int
    t: np.ndarray
    weights: np.ndarray       # quadrature weights for dt/t
    octave_of: np.ndarray     # 1-based octave index per node

    def __post_init__(self):
        for name in ("t", "weights", "octave_of"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def octave_slice(self, v: int) -> slice:
        J = self.nodes_per_octave
        return slice((v - 1) * J, v * J)

    @staticmethod
    def octave_midpoint(v: int) -> float:
        return 3.0 * 2.0 ** (-v - 1)

    @property
    def t_min(self) -> float:
        return float(self.t[-1])


def make_ladder(octaves: int = 8, nodes_per_octave: int = 12) -> ScaleLadder:
    if octaves < 1 or nodes_per_octave < 1:
        raise ParameterError("ladder needs octaves >= 1 and nodes_per_octave >= 1")
    x, w = np.polynomial.legendre.leggauss(nodes_per_octave)
    ts, ws, ovs = [], [], []
    half = 0.5 * math.log(2.0)
    for v in range(1, octaves + 1):
        lo, hi = -v * math.log(2.0), (1 - v) * math.log(2.0)
        mid = 0.5 * (lo + hi)
        u = mid + half * x
        order = np.argsort(-u)  # descending t within the octave
        ts.append(np.exp(u[order]))
        ws.append(half * w[order])
        ovs.append(np.full(nodes_per_octave, v, dtype=int))
    return ScaleLadder(octaves, nodes_per_octave,
                       np.concatenate(ts), np.concatenate(ws), np.concatenate(ovs))


# -- core solver --------------------------------------------------------------


@dataclass(frozen=True)
class NormResult:
    value: float
    modular_at_value: float
    iterations: int
    bracket: Tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "modular_at_value": self.modular_at_value,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
        }


def solve_luxemburg(vals, expo, weights, rtol: float = RTOL,
                    max_iter: int = MAX_ITER) -> NormResult:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for nonnegative v, positive e.

    Returns 0 when the modular of the raw values vanishes.
    """
    vals = np.abs(np.asarray(vals, dtype=float))
    # broadcast against the grid shape before flattening (2-D fields are (N, N))
    expo = np.broadcast_to(np.asarray(expo, dtype=float), vals.shape).reshape(-1)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), vals.shape).reshape(-1)
    vals = vals.reshape(-1)
    if np.any(expo <= 0):
        raise ParameterError("exponents must be positive")

    terms = weights * vals ** expo
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
    return NormResult(bhi, modular_at(bhi), iters, (lo, hi))


# -- grid-space operations ----------------------------------------------------


def _check_spatial(f: GridFunction, p: ExponentField,
                   w: Optional[GridFunction]) -> np.ndarray:
    if p.spec is None or p.spec != f.spec:
        raise ParameterError("exponent field lives on a different grid")
    if w is not None:
        same_grid(f, w)
        wv = w.samples.real
        if np.any(wv < 0):
            raise ParameterError("weight has negative samples")
        return wv
    return np.ones(f.spec.shape)


def modular(f: GridFunction, p: ExponentField,
            w: Optional[GridFunction] = None) -> float:
    """rho_{p(.)}(f) = h^n sum |f(x)|^{p(x)} w(x)."""
    wv = _check_spatial(f, p, w)
    h = f.spec.spacing ** f.spec.dimension
    return float(np.sum(np.abs(f.samples) ** p.grid_values() * wv) * h)


def luxemburg_norm(f: GridFunction, p: ExponentField,
                   w: Optional[GridFunction] = None) -> NormResult:
    """inf{lam > 0 : rho(f/lam) <= 1} by bisection."""
    wv = _check_spatial(f, p, w)
    h = f.spec.spacing ** f.spec.dimension
    return solve_luxemburg(np.abs(f.samples), p.grid_values(), wv * h)


# -- mixed sequence norms -----------------------------------------------------
#
# With q frozen to the scalar q_v per level, every level term of the mixed
# modular scales exactly like mu^{-q_v}, so the outer infimum reduces to
# solving  sum_v A_v mu^{-q_v} = 1  with A_v the level's inner Luxemburg norm.


def _check_q(q: Optional[ExponentField]) -> None:
    if q is None:
        raise UnsupportedFeatureError("q = infinity mixed norms are not supported")
    if q.kind != "q_of_t":
        raise ParameterError("mixed norms need a q_of_t exponent field")
    if not math.isfinite(q.cached_max):
        raise UnsupportedFeatureError("q+ must be finite")


def mixed_core(inner_terms: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
               q_levels: Sequence[float]) -> float:
    """Mixed norm from per-level (values, pointwise exponent, weights) terms."""
    A = []
    for (vals, expo, weights), qv in zip(inner_terms, q_levels):
        vals = np.abs(np.asarray(vals, dtype=float))
        A.append(solve_luxemburg(vals ** qv, np.asarray(expo, dtype=float) / qv,
                                 weights).value)
    A = np.asarray(A)
    if A.sum() == 0:
        return 0.0
    qs = np.asarray(q_levels, dtype=float)
    live = A > 0
    return solve_luxemburg(A[live] ** (1.0 / qs[live]), qs[live], 1.0).value


def mixed_sequence_norm(fs: Sequence[GridFunction], p: ExponentField,
                        q: Optional[ExponentField]) -> float:
    """Norm of (f_v)_{v>=1} in the mixed Lebesgue-sequence space.

    Level v uses the scalar q_v = q evaluated at the octave midpoint
    3 * 2^{-v-1}; the inner space is L^{p(.)} on the grid.
    """
    if not fs:
        return 0.0
    _check_q(q)
    terms = []
    q_levels = []
    for v, f in enumerate(fs, start=1):
        if p.spec is None or p.spec != f.spec:
            raise ParameterError("exponent field lives on a different grid")
        h = f.spec.spacing ** f.spec.dimension
        terms.append((np.abs(f.samples).reshape(-1), p.samples, np.full(f.spec.size, h)))
        q_levels.append(float(q.value_at(ScaleLadder.octave_midpoint(v))))
    return mixed_core(terms, q_levels)


# -- norms on the t-axis ------------------------------------------------------


def t_norm(g, q: Optional[ExponentField], ladder: ScaleLadder,
           form: str = "variable") -> float:
    """Norm of a nonnegative scalar profile g(t) over ((0,1], dt/t).

    form="variable": Luxemburg norm with exponent q(t); form="q0": the fixed
    exponent q(0); form="sup": max over nodes.  g may be an array of node
    values or any profile object exposing `.values`.
    """
    if hasattr(g, "values"):
        g = g.values
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape != ladder.t.shape:
        raise ParameterError(f"profile has {g.size} values, ladder has {ladder.t.size} nodes")
    if np.any(g < 0):
        raise ParameterError("profile values must be nonnegative")
    if form == "sup":
        return float(g.max()) if g.size else 0.0
    _check_q(q)
    if form == "variable":
        return solve_luxemburg(g, q.value_at(ladder.t), ladder.weights).value
    if form == "q0":
        q0 = float(q.limit_value)
        return float(np.sum(g ** q0 * ladder.weights) ** (1.0 / q0))
    raise ParameterError(f"unknown t-norm form {form!r}")


def octave_block_norm(g, ladder: ScaleLadder, q: ExponentField) -> float:
    """Norm of the octave blocks (t^{-1/q(t)} g(t) chi_octave)_v in the mixed
    sequence space over the t-axis (inner spaces over Lebesgue dt)."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape != ladder.t.shape:
        raise ParameterError("profile/ladder node mismatch")
    _check_q(q)
    terms, q_levels = [], []
    for v in range(1, ladder.octaves + 1):
        sl = ladder.octave_slice(v)
        tv = ladder.t[sl]
        qv_nodes = np.asarray(q.value_at(tv), dtype=float)
        vals = tv ** (-1.0 / qv_nodes) * g[sl]
        terms.append((vals, qv_nodes, tv * ladder.weights[sl]))  # Lebesgue dt weights
        q_levels.append(float(q.value_at(ScaleLadder.octave_midpoint(v))))
    return mixed_core(terms, q_levels)
