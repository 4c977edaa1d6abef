"""Variable exponent fields p(.), alpha(.), q(t) and their regularity constants.

A field is a sampled function together with its extrema.  Spatial fields
(kinds "p" and "alpha") live on a GridSpec; "q_of_t" fields live on a
log-spaced t-axis in (0, 1] and carry the limit q(0) explicitly, turning
"log-Holder continuous at the origin" into a checkable inequality on that
axis.  The log-Holder constants are estimated by `log_holder_constants` where
a check reads them; building a field does not compute them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import AdmissibilityError, ParameterError
from .grid import GridSpec

MAX_PAIRS = 10 ** 6  # deterministic strided subsample cap for pair scans

KINDS = ("p", "alpha", "q_of_t")


def _pair_constant(coords: np.ndarray, values: np.ndarray,
                   shape: Optional[Tuple[int, ...]] = None) -> Tuple[float, tuple]:
    """max over sampled pairs of |g(x)-g(y)| * log(e + 1/|x-y|), with witness.

    `shape` is the sample grid, by default one axis (1-D and t-axis).  Pairs
    are an all-pairs scan over a subsample taken with the same stride along
    every axis (<= MAX_PAIRS pairs) plus all pairs of neighbours along each
    axis, so short-range jumps are never missed and swapping the axes of a
    square grid leaves the estimate unchanged.  Constant fields give 0.
    """
    M = len(values)
    if M < 2:
        return 0.0, ()
    if values.min() == values.max():
        return 0.0, (0, 0)
    shape = values.shape if shape is None else shape
    n = len(shape)
    flat = np.arange(M).reshape(shape)
    idx = flat[tuple(slice(None, None, int(np.ceil(N / MAX_PAIRS ** (1 / (2 * n)))))
                     for N in shape)].reshape(-1)
    coords = coords.reshape(M, -1)
    sub_c, sub_v = coords[idx], values[idx]
    dist = np.linalg.norm(sub_c[:, None, :] - sub_c[None, :, :], axis=-1)
    diff = np.abs(sub_v[:, None] - sub_v[None, :])
    with np.errstate(divide="ignore"):
        prod = np.where(dist > 0, diff * np.log(np.e + 1.0 / np.where(dist > 0, dist, 1.0)), 0.0)
    best = float(prod.max())
    i, j = np.unravel_index(int(prod.argmax()), prod.shape)
    witness = (idx[i], idx[j])

    # neighbour pairs along each axis at full resolution
    grid_c = coords.reshape(shape + coords.shape[1:])
    grid_v = values.reshape(shape)
    for ax in range(n):
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(n))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(n))
        d_adj = np.linalg.norm(grid_c[hi] - grid_c[lo], axis=-1).reshape(-1)
        g_adj = np.abs(grid_v[hi] - grid_v[lo]).reshape(-1)
        ok = d_adj > 0
        if ok.any():
            prod_adj = g_adj[ok] * np.log(np.e + 1.0 / d_adj[ok])
            if prod_adj.max() > best:
                best = float(prod_adj.max())
                a = int(np.flatnonzero(ok)[int(prod_adj.argmax())])
                witness = (int(flat[lo].reshape(-1)[a]), int(flat[hi].reshape(-1)[a]))
    return best, witness


@dataclass(frozen=True)
class ExponentField:
    """Sampled variable exponent with its extrema."""

    kind: str
    coords: np.ndarray          # sample positions: x (spatial) or t in (0,1]
    samples: np.ndarray
    spec: Optional[GridSpec] = None
    limit_value: Optional[float] = None   # p_infty, or q(0) for q_of_t
    cached_min: float = 0.0
    cached_max: float = 0.0

    @property
    def is_constant(self) -> bool:
        return self.cached_max == self.cached_min

    def grid_values(self) -> np.ndarray:
        """Samples in the grid's native shape (spatial kinds only)."""
        if self.spec is None:
            return self.samples
        return self.samples.reshape(self.spec.shape)

    def value_at(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate a q_of_t field at arbitrary t by interpolation in log t.

        t below the sampled range returns the first sample, t above it the
        last (`np.interp` holds the end values).
        """
        if self.kind != "q_of_t":
            raise ParameterError("value_at is for q_of_t fields")
        logt = np.log(np.asarray(t, dtype=float))
        out = np.interp(logt, self._log_coords, self.samples)
        return float(out) if np.isscalar(t) else out

    @property
    def _log_coords(self) -> np.ndarray:
        return np.log(self.coords)


def make_exponent_field(
    samples: np.ndarray,
    kind: str,
    limit_value: Optional[float] = None,
    *,
    spec: Optional[GridSpec] = None,
    t_coords: Optional[np.ndarray] = None,
) -> ExponentField:
    """Build a field, validate admissibility, cache extrema.

    Spatial kinds need `spec`; q_of_t needs `t_coords` in (0,1] and a finite
    limit_value = q(0).
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown exponent kind {kind!r}")
    if limit_value is not None and not np.isfinite(limit_value):
        raise ParameterError(f"limit_value must be finite, got {limit_value}")
    vals = np.asarray(samples, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise ParameterError("exponent samples contain NaN/Inf")

    if kind == "q_of_t":
        if t_coords is None:
            raise ParameterError("q_of_t fields need t_coords")
        t = np.asarray(t_coords, dtype=float).reshape(-1)
        if t.shape != vals.shape:
            raise ParameterError("t_coords and samples disagree in length")
        if np.any(t <= 0) or np.any(t > 1):
            raise ParameterError("q_of_t axis must lie in (0, 1]")
        if limit_value is None:
            raise ParameterError("q_of_t fields need limit_value = q(0)")
        order = np.argsort(t)
        coords = t[order]
        vals = vals[order]
    else:
        if spec is None:
            raise ParameterError(f"{kind}-kind fields need a GridSpec")
        if vals.size != spec.size:
            raise ParameterError(f"{vals.size} samples on a grid of {spec.size} nodes")
        coords = spec.coords().reshape(spec.size, -1).squeeze()

    if kind in ("p", "q_of_t"):
        if np.any(vals < 1):
            raise AdmissibilityError(f"{kind} exponent dips below 1 (min {vals.min()})")
        if kind == "q_of_t" and limit_value < 1:
            raise AdmissibilityError(f"q(0) = {limit_value} < 1")

    cmin, cmax = float(vals.min()), float(vals.max())
    if cmin == cmax and limit_value is None:
        limit_value = cmin

    return ExponentField(
        kind=kind, coords=coords, samples=vals, spec=spec,
        limit_value=limit_value, cached_min=cmin, cached_max=cmax,
    )


def field_from_callable(spec: GridSpec, fn, kind: str,
                        limit_value: Optional[float] = None) -> ExponentField:
    vals = fn(*[np.array(a) for a in np.broadcast_arrays(*spec.axes())])
    return make_exponent_field(np.broadcast_to(vals, spec.shape).reshape(-1),
                               kind, limit_value, spec=spec)


def q_field_from_callable(t_coords: np.ndarray, fn, q0: float) -> ExponentField:
    t = np.asarray(t_coords, dtype=float)
    return make_exponent_field(fn(t), "q_of_t", q0, t_coords=t)


def constant_field(spec: GridSpec, value: float, kind: str = "p") -> ExponentField:
    return make_exponent_field(np.full(spec.size, float(value)), kind, float(value), spec=spec)


def log_holder_constants(g: ExponentField, values: np.ndarray,
                         limit: Optional[float]) -> Tuple[float, Optional[float], tuple]:
    """(local constant, decay constant, witness pair) of `values` on g's samples.

    The local constant and its witness pair of sample indices come from
    `_pair_constant`.  The decay constant is max |values - limit| times
    log(e + 1/t) on the t-axis of a q_of_t field and log(e + |x|) on a grid;
    it is None without a limit.
    """
    clog_local, witness = _pair_constant(
        g.coords, values, None if g.spec is None else g.spec.shape)
    clog_decay = None
    if limit is not None:
        if g.kind == "q_of_t":
            clog_decay = float(np.max(np.abs(values - limit) * np.log(np.e + 1.0 / g.coords)))
        else:
            r = g.spec.radius().reshape(-1)
            clog_decay = float(np.max(np.abs(values - limit) * np.log(np.e + r)))
    return clog_local, clog_decay, witness


def reciprocal_constants(g: ExponentField) -> Tuple[float, Optional[float]]:
    """log-Holder constants of 1/g, as needed by the damping factors gamma_m."""
    inv_limit = None if g.limit_value is None else 1.0 / g.limit_value
    clog_local, clog_decay, _ = log_holder_constants(g, 1.0 / g.samples, inv_limit)
    return clog_local, clog_decay


@dataclass(frozen=True)
class ClassReport:
    is_Plog: bool
    is_log_holder_at_origin: bool
    witnesses: dict


def check_class(g: ExponentField) -> ClassReport:
    """Report membership in the admissible regularity class.

    With estimated constants the defining inequalities hold by construction,
    so the verdict is about finiteness of the constants plus presence of the
    limit value; the witnesses expose where the constants are attained.
    """
    clog_local, clog_decay, witness = log_holder_constants(g, g.samples, g.limit_value)
    finite_local = np.isfinite(clog_local)
    finite_decay = clog_decay is not None and np.isfinite(clog_decay)
    witnesses = {
        "clog_local": clog_local,
        "clog_decay": clog_decay,
        "worst_pair_indices": tuple(int(i) for i in witness),
    }
    if witness:
        i, j = witness
        witnesses["worst_pair"] = {
            "coord_a": np.asarray(g.coords[i]).tolist(),
            "coord_b": np.asarray(g.coords[j]).tolist(),
            "value_a": float(g.samples[i]),
            "value_b": float(g.samples[j]),
        }
    ok = bool(finite_local and finite_decay)
    return ClassReport(is_Plog=ok, is_log_holder_at_origin=ok, witnesses=witnesses)
