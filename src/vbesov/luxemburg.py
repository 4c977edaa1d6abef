"""Modulars, Luxemburg norms, and the mixed sequence norms built from them.

Every norm here is the infimum of lambda with modular(f/lambda) <= 1.  The
bracket [min(R^{1/e-}, R^{1/e+}), max(R^{1/e-}, R^{1/e+})], R = modular(f),
always contains the root; for a constant exponent it collapses and the
closed form R^{1/p} is returned without iterating.  Otherwise the root is
found by safeguarded Newton in mu = log lambda: log modular(mu) =
log sum w v^e exp(-e mu) is convex and decreasing, so its tangent at the
upper end of the bracket meets 0 left of the root, Newton started there
climbs to the root monotonically, and a step that leaves the bracket falls
back to bisection; a row stops when its step is below RTOL, or sooner on
an enclosure of the root within 1e-14, each end to 1 ulp of mu in float64
(`_root_above`).  One solver does this for a block of rows at once (an
octave of ladder nodes); a single norm is its one-row call.

The solver takes each term once as its log, e (log(v / c) - s log t - m)
+ log w, with a profile row's scale weight t^{-s(x)} entering as its log
(`smoothness`), c = max v and m the row's largest log(v / c) - s log t, so
the norm is c e^m lambda; it evaluates the modular and its slope in one
pass of exp(log term - e mu).  A zero value or a zero weight is the log
term -inf, whose term is 0 at every lambda, so every row keeps all its
columns: the open rows of a block run as one Newton block, and each row
still sums the terms of its one-row call in the same order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, ParameterError, UnsupportedFeatureError
from .exponents import ExponentField
from .grid import GridFunction

RTOL = 1e-10
MAX_ITER = 200
_GUARD_STEPS = 8   # ulp steps of the bracket's upper end, 4^k ulps each
_CERTIFIED = 1e-14  # width in log lam of an enclosure that stops Newton


# -- scale ladder -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScaleLadder:
    """Quadrature ladder for integrals dt/t over t in (0, 1].

    Octave v covers [2^-v, 2^{1-v}]; per-octave Gauss-Legendre nodes in log t,
    so each octave's weights sum to log 2 exactly (up to roundoff).
    Nodes are stored strictly decreasing in t.  Two ladders are equal, and
    hash equal, when their sizes and the bytes of their nodes and weights
    are: a ladder is part of a kernel's cache key (`frame`).
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

    def _key(self) -> tuple:
        return (self.octaves, self.nodes_per_octave, self.t.tobytes(), self.weights.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaleLadder):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def octave_slice(self, v: int) -> slice:
        J = self.nodes_per_octave
        return slice((v - 1) * J, v * J)

    @staticmethod
    def octave_midpoint(v: int) -> float:
        return 3.0 * 2.0 ** (-v - 1)


# built once per process: a ladder is frozen and its arrays read-only
@functools.lru_cache(maxsize=16)
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


def solve_luxemburg_rows(vals, expo, weights, report: bool = False,
                         smoothness=None) -> RowNorms:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for every row v of a block.

    vals holds one row per norm along its first axis; expo and weights
    broadcast against one row or against the whole block; with smoothness
    = (s, t), row j is t[j]^{-s} vals[j], the weight taken as its log.  The
    rows share every array operation, the open ones in one Newton block,
    but never mix: each row takes the steps, and gets the bits, of a
    one-row call on the same inputs.  The modular at each value only feeds
    a report, so it is computed only when `report` is set.
    """
    vals = np.abs(np.asarray(vals, dtype=float))
    expo, weights = np.asarray(expo, dtype=float), np.asarray(weights, dtype=float)
    J = vals.shape[0]

    def rows_of(x):
        # broadcast against the block before flattening each row (2-D grids)
        return x if x.ndim == 0 else np.broadcast_to(x, vals.shape).reshape(J, -1)

    V, E = vals.reshape(J, -1), rows_of(expo)
    if expo.ndim == 0:
        emin = emax = np.full(J, float(expo))
    else:
        emin, emax = E.min(axis=1, initial=math.inf), E.max(axis=1, initial=0.0)
    scale = V.max(axis=1, initial=0.0)
    s = 0.0 if smoothness is None else np.asarray(smoothness[0], dtype=float)
    if not (np.isfinite(scale).all() and np.isfinite(emax).all()
            and np.isfinite(weights).all() and np.isfinite(s).all()):
        raise ParameterError("values, exponents, weights and smoothness must be finite")
    if np.any(weights < 0):
        raise ParameterError("weights must be nonnegative")
    if not np.all(emin > 0):
        raise ParameterError("exponents must be positive")

    iterations = np.zeros(J, dtype=np.int64)
    lo, hi, lam = np.zeros(J), np.zeros(J), np.zeros(J)
    # The root is found for t^-s v / (c e^m) and scaled back (the norm is
    # homogeneous): c = max|v| is divided out before the log, so no term
    # overflows or underflows at any magnitude float64 holds, and m, the
    # row's largest log(v / c) - s log t, puts the largest term at its
    # weight, so the bracket stays as tight as without the weight.  Each
    # term enters as its log, e (log(v / c) - s log t - m) + log w, formed
    # once in one buffer: a zero value or weight gives -inf, and the term
    # exp(-inf) = 0 at every lam.  An all-zero row gives NaN logs and the
    # norm 0, as does a row whose modular vanishes.
    L = V      # |vals| is a fresh array: the logs are formed in its buffer
    with np.errstate(invalid="ignore", divide="ignore"):
        L /= scale[:, None]
        np.log(L, out=L)
        if smoothness is not None:   # one row at a time: no block of weights
            for row, lt in zip(L.reshape(vals.shape), _logs(smoothness[1]), strict=True):
                row -= s * lt
            m = np.where(scale > 0.0, L.max(axis=1, initial=-math.inf), 0.0)
            L -= m[:, None]
            scale *= np.exp(m)
        L *= E
        L += rows_of(np.log(weights))
    R = np.exp(L).sum(axis=1)
    rows = np.flatnonzero(R > 0)
    for i in rows:
        a, b = float(R[i]) ** (1.0 / float(emin[i])), float(R[i]) ** (1.0 / float(emax[i]))
        lo[i], hi[i] = min(a, b), max(a, b)

    def block(sel):
        """The logs and exponents of the rows sel: the whole block without a copy."""
        if sel.size == J:
            return L, E
        return L[sel], E if E.ndim == 0 else E[sel]

    # roundoff safety: the analytic bracket can miss by an ulp, so hi steps
    # up by 1, 4, 16, .. ulps until the modular there is at most 1.  The
    # last evaluation keeps rho(hi) and -d rho / d mu there, where Newton
    # takes its first step
    rho_hi, slope_hi = np.zeros(J), np.zeros(J)
    sel = rows
    for guard in range(_GUARD_STEPS + 1):
        rho_hi[sel], slope_hi[sel] = _rho_slope(*block(sel), _logs(hi[sel]))
        sel = sel[rho_hi[sel] > 1.0]
        if not sel.size:
            break
        if guard == _GUARD_STEPS:
            raise ConstructionError(
                f"Luxemburg bracket: the modular stays above 1 at the upper end of "
                f"row(s) {sel.tolist()} after {_GUARD_STEPS} ulp steps")
        hi[sel] += np.spacing(hi[sel]) * 4.0 ** guard
    # a constant exponent closes the bracket (the guard moves hi by at most
    # 21845 ulps, below RTOL): its closed form is hi, and Newton never sees
    # a scalar exponent
    shut = hi[rows] - lo[rows] <= RTOL * hi[rows]
    closed, newton = rows[shut], rows[~shut]
    lam[closed] = hi[closed]
    lam[newton], iterations[newton] = _newton_rows(*block(newton), lo[newton], hi[newton],
                                                   rho_hi[newton], slope_hi[newton],
                                                   (0.5 * (emax - emin)[newton]) ** 2)
    modulars = None
    if report:
        modulars = np.zeros(J)
        modulars[rows] = _rho_slope(*block(rows), _logs(lam[rows]))[0]
    return RowNorms(scale * lam, iterations, np.stack([scale * lo, scale * hi], axis=1),
                    modulars)


def _rho_slope(L, E, mu):
    """rho and -d rho / d mu per row at mu = log lam, in one pass of the
    terms exp(L - E mu) over the logs L of the terms at lam = 1."""
    a = np.multiply(E, mu[:, None])
    a = np.subtract(L, a, out=a if a.shape == L.shape else None)
    np.exp(a, out=a)
    rho = a.sum(axis=1)
    return rho, E * rho if E.ndim == 0 else np.vecdot(E, a)


def _tangent_root(log_lo: float, log_hi: float, rho: float, slope: float) -> float:
    """Where the tangent of log rho at mu = log hi crosses 0, clamped into
    the bracket: log rho is convex, so it lies left of the root and Newton
    climbs from it.  log lo when rho(hi) or the slope is not a positive
    finite number."""
    if not (0.0 < rho < math.inf and 0.0 < slope < math.inf):
        return log_lo
    return min(max(log_hi + math.log(rho) * rho / slope, log_lo), log_hi)


def _root_above(mu: float, rho: float, slope: float, spread: float) -> float:
    """An upper bound mu + d of the root from rho > 1 at mu: (log rho)'' is the
    variance of e under the term weights, at most spread = (e+ - e-)^2 / 4,
    so log rho(mu + d) <= 0 at d = (sigma - sqrt(sigma^2 - 2 spread log rho))
    / spread, sigma = slope / rho (inf where the root is complex).  In float64
    it and the Newton point enclose the root to 1 ulp of mu on each side."""
    lr, sigma = math.log(rho), slope / rho
    disc = sigma * sigma - 2.0 * spread * lr
    return mu + 2.0 * lr / (sigma + math.sqrt(disc)) if disc >= 0.0 else math.inf


def _newton_rows(L, E, lo, hi, rho_hi, slope_hi, spread):
    """Safeguarded Newton (module docstring) on the rows of the log terms
    L, the root of each row bracketed by [lo, hi], started at the tangent
    root at hi from rho(hi) and -d rho / d mu there; returns lam and the
    step count per row, which also stops where the Newton point and
    `_root_above` (spread bounds (log rho)'') are within _CERTIFIED.

    Where rho overflows, near lo when e+/e- is large, the step is not
    finite; a step that leaves the bracket [blo, bhi], which tightens with
    every evaluation, is replaced by a bisection step.
    """
    blo, bhi = _logs(lo).tolist(), _logs(hi).tolist()
    mu = [_tangent_root(*args) for args in zip(blo, bhi, rho_hi.tolist(), slope_hi.tolist())]
    steps = [0] * len(blo)
    act = np.arange(len(blo))
    with np.errstate(over="ignore", invalid="ignore"):
        while act.size:
            rho, slope = _rho_slope(L, E, np.array([mu[k] for k in act]))
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
                newton = blo[k] <= nxt <= bhi[k]
                nxt = nxt if newton else 0.5 * (blo[k] + bhi[k])
                steps[k] += 1
                done = (abs(nxt - mu[k]) <= RTOL or bhi[k] - blo[k] <= RTOL or (newton and r > 1.0
                        and _root_above(mu[k], r, s, spread[k]) - nxt <= _CERTIFIED))
                mu[k] = nxt
                keep[j] = not done and steps[k] < MAX_ITER
            if not keep.all():
                act, L, E = act[keep], L[keep], E[keep]
    return np.array([math.exp(m) for m in mu]), steps


def solve_luxemburg(vals, expo, weights) -> NormResult:
    """inf{lam > 0 : sum w * (v/lam)^e <= 1} for nonnegative v, positive e:
    the one-row call of `solve_luxemburg_rows`, with the modular at the
    value.  Returns 0 when the modular of the raw values vanishes."""
    r = solve_luxemburg_rows(np.asarray(vals, dtype=float)[None], expo, weights, report=True)
    return NormResult(float(r.values[0]), float(r.modulars[0]), int(r.iterations[0]),
                      (float(r.brackets[0, 0]), float(r.brackets[0, 1])))


# -- grid-space operations ----------------------------------------------------


def _check_spatial(f: GridFunction, p: ExponentField) -> None:
    if p.spec is None or p.spec != f.spec:
        raise ParameterError("exponent field lives on a different grid")


def modular(f: GridFunction, p: ExponentField) -> float:
    """rho_{p(.)}(f) = h^n sum |f(x)|^{p(x)}."""
    _check_spatial(f, p)
    h = f.spec.spacing ** f.spec.dimension
    return float(np.sum(np.abs(f.samples) ** p.grid_values()) * h)


def luxemburg_norm(f: GridFunction, p: ExponentField) -> NormResult:
    """inf{lam > 0 : rho(f/lam) <= 1} by safeguarded Newton in log lam."""
    _check_spatial(f, p)
    return solve_luxemburg(np.abs(f.samples), p.grid_values(), f.spec.spacing ** f.spec.dimension)


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
    and scaled back: the powers |v|^q_v neither overflow nor underflow.  A
    level of norm 0 is a term 0 of the outer solve at every lambda."""
    vals = [np.abs(np.asarray(v, dtype=float)) for v, _, _ in inner_terms]
    scale = float(max(v.max(initial=0.0) for v in vals)) or 1.0
    rows = []
    for v, (_, expo, weights), qv in zip(vals, inner_terms, q_levels):
        v = (v / scale) ** qv
        rows.append((v, np.broadcast_to(np.asarray(expo, dtype=float) / qv, v.shape),
                     np.broadcast_to(np.asarray(weights, dtype=float), v.shape)))
    A = solve_luxemburg_rows(*(np.stack(x) for x in zip(*rows))).values
    qs = np.asarray(q_levels, dtype=float)
    return scale * float(solve_luxemburg_rows((A ** (1.0 / qs))[None], qs, 1.0).values[0])


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
    if form not in ("variable", "q0"):
        raise ParameterError(f"unknown t-norm form {form!r}")
    expo = q.value_at(ladder.t) if form == "variable" else float(q.limit_value)
    return float(solve_luxemburg_rows(g[None], expo, ladder.weights).values[0])


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
