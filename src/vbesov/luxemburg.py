"""Modulars, Luxemburg norms, and the mixed sequence norms built from them.

Every norm here is the infimum of lambda with modular(f/lambda) <= 1.  The
bracket [min(R^{1/e-}, R^{1/e+}), max(R^{1/e-}, R^{1/e+})], R = modular(f),
always contains the root; for a constant exponent it collapses and the
closed form R^{1/p} is returned without iterating.  Otherwise the root is
found by safeguarded Newton in mu = log lambda: log modular(mu) =
log sum w v^e exp(-e mu) is convex and decreasing, so its tangent at the
upper end of the bracket meets 0 left of the root, Newton started there
climbs to the root monotonically, and a step that leaves the bracket falls
back to bisection.  One solver does this for a block of rows at once (an
octave of ladder nodes); a single norm is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, ParameterError, UnsupportedFeatureError
from .exponents import ExponentField
from .grid import GridFunction, same_grid

RTOL = 1e-10
MAX_ITER = 200
_GUARD_STEPS = 8   # ulp steps of the bracket's upper end, 4^k ulps each


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

    def __post_init__(self):
        for name in ("t", "weights"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def octave_slice(self, v: int) -> slice:
        J = self.nodes_per_octave
        return slice((v - 1) * J, v * J)

    @staticmethod
    def octave_midpoint(v: int) -> float:
        return 3.0 * 2.0 ** (-v - 1)


def make_ladder(octaves: int = 8, nodes_per_octave: int = 12) -> ScaleLadder:
    if octaves < 1 or nodes_per_octave < 1:
        raise ParameterError("ladder needs octaves >= 1 and nodes_per_octave >= 1")
    x, w = np.polynomial.legendre.leggauss(nodes_per_octave)
    ts, ws = [], []
    half = 0.5 * math.log(2.0)
    for v in range(1, octaves + 1):
        lo, hi = -v * math.log(2.0), (1 - v) * math.log(2.0)
        mid = 0.5 * (lo + hi)
        u = mid + half * x
        order = np.argsort(-u)  # descending t within the octave
        ts.append(np.exp(u[order]))
        ws.append(half * w[order])
    return ScaleLadder(octaves, nodes_per_octave, np.concatenate(ts), np.concatenate(ws))


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


@dataclass(frozen=True)
class RowNorms:
    """The Luxemburg norms of the rows of one block."""

    values: np.ndarray
    iterations: np.ndarray
    brackets: np.ndarray                # (rows, 2), the exact bracket of each row
    modulars: Optional[np.ndarray]      # modular at each value, when asked for


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log per entry (np.log can differ in the last bit)."""
    return np.fromiter(map(math.log, x), float, len(x))


def solve_luxemburg_rows(vals, expo, weights, report: bool = False) -> RowNorms:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for every row v of a block.

    vals holds one row per norm along its first axis; expo and weights
    broadcast against one row or against the whole block.  A scalar expo
    takes numpy's scalar-power path.  The rows share every array operation,
    Newton's in one block per zero pattern, but never mix: each row takes
    the steps, and gets the bits, of a one-row call.  The modular at each
    value only feeds a report, so it is computed only when `report` is set.
    """
    vals = np.abs(np.asarray(vals, dtype=float))
    expo, weights = np.asarray(expo, dtype=float), np.asarray(weights, dtype=float)
    J = vals.shape[0]
    V = vals.reshape(J, -1)
    # broadcast against the block before flattening each row (2-D grids)
    E = np.broadcast_to(expo, vals.shape).reshape(J, -1)
    if expo.ndim == 0:
        emin = emax = np.full(J, float(expo))
    else:
        emin, emax = E.min(axis=1, initial=math.inf), E.max(axis=1, initial=0.0)
    scale = V.max(axis=1, initial=0.0)
    if not (np.isfinite(scale).all() and np.isfinite(emax).all()
            and np.isfinite(weights).all()):
        raise ParameterError("values, exponents and weights must be finite")
    if not np.all(emin > 0):
        raise ParameterError("exponents must be positive")

    values, iterations = np.zeros(J), np.zeros(J, dtype=np.int64)
    lo, hi = np.zeros(J), np.zeros(J)
    modulars = np.zeros(J) if report else None
    # The root is found for v / max|v| and scaled back (the norm is
    # homogeneous), so the powers neither overflow nor underflow at any
    # magnitude float64 holds.  An all-zero row gives NaN terms here and
    # the norm 0, as does a row whose modular vanishes.
    W = weights if weights.ndim == 0 else np.broadcast_to(weights, vals.shape).reshape(J, -1)
    P = expo if expo.ndim == 0 else E
    terms = V      # |vals| is a fresh array: the terms are formed in its buffer
    with np.errstate(invalid="ignore", divide="ignore"):
        terms /= scale[:, None]
        terms **= P
        terms *= W
    R = terms.sum(axis=1)
    rows = np.flatnonzero(R > 0)
    for i in rows:
        a, b = float(R[i]) ** (1.0 / float(emin[i])), float(R[i]) ** (1.0 / float(emax[i]))
        lo[i], hi[i] = min(a, b), max(a, b)

    def scaled_at(sel, log_lam):
        whole = sel.size == J
        return _scaled_terms(terms if whole else terms[sel],
                             P if P.ndim == 0 or whole else P[sel], log_lam)

    # roundoff safety: the analytic bracket can miss by an ulp, so hi steps
    # up by 1, 4, 16, .. ulps until the modular there is at most 1.  The
    # last evaluation keeps rho(hi) and -d rho / d mu there, where Newton
    # takes its first step (a constant exponent closes the bracket: no slope)
    rho_hi, slope_hi = np.zeros(J), np.zeros(J)
    sel = rows
    for guard in range(_GUARD_STEPS + 1):
        a = scaled_at(sel, _logs(hi[sel]))
        rho_hi[sel] = a.sum(axis=1)
        if P.ndim:
            slope_hi[sel] = np.vecdot(E if sel.size == J else E[sel], a)
        sel = sel[rho_hi[sel] > 1.0]
        if not sel.size:
            break
        if guard == _GUARD_STEPS:
            raise ConstructionError(
                f"Luxemburg bracket: the modular stays above 1 at the upper end of "
                f"row(s) {sel.tolist()} after {_GUARD_STEPS} ulp steps")
        hi[sel] += np.spacing(hi[sel]) * 4.0 ** guard
    shut = hi[rows] - lo[rows] <= RTOL * hi[rows]
    closed, newton = rows[shut], rows[~shut]
    values[closed] = scale[closed] * hi[closed]
    if report:
        modulars[closed] = scaled_at(closed, _logs(hi[closed])).sum(axis=1)
    # one Newton block per zero pattern, compacted to its nonzero columns in
    # C order: no block holds a zero term (zero times an overflowed power is
    # NaN), and each row sums the terms of its one-row call in the same order
    live, blocks = terms > 0.0, {}
    for i in newton.tolist():
        blocks.setdefault(live[i].tobytes(), []).append(i)
    for sel in map(np.array, blocks.values()):
        cols = live[sel[0]]
        if sel.size == J and cols.all():
            block = terms, E
        else:
            ix = np.ix_(sel, np.flatnonzero(cols))
            block = terms[ix], E[ix]
        lam, iterations[sel], mods = _newton_rows(*block, lo[sel], hi[sel], rho_hi[sel],
                                                  slope_hi[sel], report)
        values[sel] = scale[sel] * lam
        if report:
            modulars[sel] = mods
    return RowNorms(values, iterations, np.stack([scale * lo, scale * hi], axis=1), modulars)


def _scaled_terms(T, E, log_lam):
    """The terms T * exp(-E log(lam)) of the modular at one lam per row."""
    a = np.multiply(E, -log_lam[:, None])
    np.exp(a, out=a)
    return np.multiply(a, T, out=a if a.shape == T.shape else None)


def _rho_slope(T, E, mu):
    """rho and -d rho / d mu per row at mu = log lam."""
    a = _scaled_terms(T, E, mu)
    return a.sum(axis=1), np.vecdot(E, a)


def _tangent_root(log_lo: float, log_hi: float, rho: float, slope: float) -> float:
    """Where the tangent of log rho at mu = log hi crosses 0, clamped into
    the bracket: log rho is convex, so it lies left of the root and Newton
    climbs from it.  log lo when rho(hi) or the slope is not a positive
    finite number."""
    if not (0.0 < rho < math.inf and 0.0 < slope < math.inf):
        return log_lo
    return min(max(log_hi + math.log(rho) * rho / slope, log_lo), log_hi)


def _newton_rows(T, E, lo, hi, rho_hi, slope_hi, report):
    """Safeguarded Newton (module docstring) on the rows of T, which holds
    no zero term, the root of each row bracketed by [lo, hi], started at
    the tangent root at hi from rho(hi) and -d rho / d mu there; returns
    lam and the step count per row, and the modular at lam when `report`
    is set.

    Where rho overflows, near lo when e+/e- is large, the step is not
    finite; a step that leaves the bracket [blo, bhi], which tightens with
    every evaluation, is replaced by a bisection step.
    """
    full = (T, E)
    blo, bhi = _logs(lo).tolist(), _logs(hi).tolist()
    mu = [_tangent_root(*args) for args in zip(blo, bhi, rho_hi.tolist(), slope_hi.tolist())]
    steps = [0] * len(blo)
    act = np.arange(len(blo))
    with np.errstate(over="ignore", invalid="ignore"):
        while act.size:
            rho, slope = _rho_slope(T, E, np.array([mu[k] for k in act]))
            # the step itself runs per row on Python floats with math.log,
            # as a one-row call does, so each row keeps its bits
            keep = np.ones(act.size, dtype=bool)
            for j, k in enumerate(act.tolist()):
                r, s = float(rho[j]), float(slope[j])
                if r > 1.0:
                    blo[k] = mu[k]
                else:
                    bhi[k] = mu[k]
                finite = 0.0 < r and s < math.inf
                nxt = mu[k] + math.log(r) * r / s if finite else math.nan
                if not blo[k] <= nxt <= bhi[k]:
                    nxt = 0.5 * (blo[k] + bhi[k])
                steps[k] += 1
                done = abs(nxt - mu[k]) <= RTOL or bhi[k] - blo[k] <= RTOL
                mu[k] = nxt
                keep[j] = not done and steps[k] < MAX_ITER
            if not keep.all():
                act, T, E = act[keep], T[keep], E[keep]
        lam = np.array([math.exp(m) for m in mu])
        mods = _scaled_terms(*full, _logs(lam)).sum(axis=1) if report else None
    return lam, steps, mods


def solve_luxemburg(vals, expo, weights) -> NormResult:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for nonnegative v, positive e:
    the one-row call of `solve_luxemburg_rows`, with the modular at the
    value.  Returns 0 when the modular of the raw values vanishes."""
    r = solve_luxemburg_rows(np.asarray(vals, dtype=float)[None], expo, weights, report=True)
    return NormResult(float(r.values[0]), float(r.modulars[0]), int(r.iterations[0]),
                      (float(r.brackets[0, 0]), float(r.brackets[0, 1])))


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
    """inf{lam > 0 : rho(f/lam) <= 1} by safeguarded Newton in log lam."""
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
    """Mixed norm from per-level (values, pointwise exponent, weights) terms
    of one size; the inner norms of all levels are one row solve.  The norm
    is homogeneous, so it is found for the values divided by their largest,
    and scaled back: the powers |v|^q_v neither overflow nor underflow."""
    vals = [np.abs(np.asarray(v, dtype=float)) for v, _, _ in inner_terms]
    scale = float(max(v.max(initial=0.0) for v in vals)) or 1.0
    rows = []
    for v, (_, expo, weights), qv in zip(vals, inner_terms, q_levels):
        v = (v / scale) ** qv
        rows.append((v, np.broadcast_to(np.asarray(expo, dtype=float) / qv, v.shape),
                     np.broadcast_to(np.asarray(weights, dtype=float), v.shape)))
    A = solve_luxemburg_rows(*(np.stack(x) for x in zip(*rows))).values
    if A.sum() == 0:
        return 0.0
    qs = np.asarray(q_levels, dtype=float)
    live = A > 0
    return scale * float(solve_luxemburg_rows((A[live] ** (1.0 / qs[live]))[None], qs[live],
                                              1.0).values[0])


def lq_norm(x, q: float, weights=1.0) -> float:
    """(sum w x^q)^(1/q) of nonnegative x, formed as m (sum w (x/m)^q)^(1/q)
    with m = max x, so no power overflows or underflows at any magnitude."""
    x = np.asarray(x, dtype=float)
    m = float(x.max(initial=0.0))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((x / m) ** q * weights) ** (1.0 / q))


# -- norms on the t-axis ------------------------------------------------------


def t_norm(g, q: Optional[ExponentField], ladder: ScaleLadder,
           form: str = "variable") -> float:
    """Norm of a nonnegative scalar profile g(t) over ((0,1], dt/t).

    form="variable": Luxemburg norm with exponent q(t); form="q0": the fixed
    exponent q(0).  g holds the node values.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape != ladder.t.shape:
        raise ParameterError(f"profile has {g.size} values, ladder has {ladder.t.size} nodes")
    if not (np.all(np.isfinite(g)) and np.all(g >= 0)):
        raise ParameterError("profile values must be finite and nonnegative")
    _check_q(q)
    if form == "variable":
        return float(solve_luxemburg_rows(g[None], q.value_at(ladder.t), ladder.weights).values[0])
    if form == "q0":
        return lq_norm(g, float(q.limit_value), ladder.weights)
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
