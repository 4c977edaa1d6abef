"""Scale profiles and the smoothness norm in its equivalent forms.

Every form is a level-0 term plus a t-norm of one scale profile, and every
profile comes from the same pipeline (`_scale_profile`): per ladder node t,
a kernel multiplier at scale t times the spectrum of f, then |.| t^-alpha(x),
then, for the maximal forms, the Peetre maximal function of order a, then
the Luxemburg norm in L^p(.).  The unit of work is the octave: its nodes
form one (nodes, *grid) block, with one batched inverse FFT and one
row-wise Luxemburg solve.  The level-0 term runs the same steps with the
level-0 multiplier and no weight.  Only the kernel pair and the maximal
switch change between forms:

  direct, discretized, q0   resolution of unity (Phi, phi_t), no maximal;
                            the t-norm is variable-q over dt/t, octave
                            blocks, or the fixed exponent q(0)
  peetre                    resolution of unity, maximal
  local_mean_double_prime   local-mean pair (k0, k_t), no maximal
  local_mean_prime          local-mean pair, maximal
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .errors import HypothesisViolationError, ParameterError
from .exponents import ExponentField
from .frame import CalderonFrame, LocalMeanPair
from .grid import GridFunction, GridSpec, band_rows, spectrum
from .luxemburg import ScaleLadder, octave_block_norm, solve_luxemburg_rows, t_norm

FORMS = ("direct", "discretized", "q0", "peetre",
         "local_mean_prime", "local_mean_double_prime")


@dataclass(frozen=True)
class ScaleProfile:
    """Per-node scalar values along the ladder plus the level-0 term."""

    ladder: ScaleLadder
    values: np.ndarray
    level0: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.ladder.t.shape:
            raise ParameterError("profile/ladder node mismatch")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ParameterError("profile values must be finite and nonnegative")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class BesovNormReport:
    form: str
    value: float
    profile: ScaleProfile
    parameters: Dict[str, object]

    def to_dict(self) -> dict:
        return {"form": self.form, "value": self.value,
                "level0": self.profile.level0,
                "parameters": dict(self.parameters)}


def _field_echo(field: Optional[ExponentField]) -> object:
    if field is None:
        return None
    if field.is_constant:
        return field.cached_min
    return {"min": field.cached_min, "max": field.cached_max,
            "limit": field.limit_value}


def _scale_weights(ts: np.ndarray, alpha: ExponentField, n: int) -> np.ndarray:
    """t^{-alpha(x)} for every t in ts, one row per t (one value per row for
    constant alpha, each a scalar power as in a per-node call)."""
    if alpha.is_constant:
        return np.array([t ** (-alpha.cached_min) for t in ts]).reshape((-1,) + (1,) * n)
    return np.power(ts.reshape((-1,) + (1,) * n), -alpha.grid_values())


# -- Peetre maximal function ---------------------------------------------------
#
# out(x) = max_y K[(y - x) mod N] g(y), K the kernel (1 + d/t)^-a over periodic
# offsets.  Bound and prune: a cheap lower bound per point, an upper bound per
# pair of blocks (X, Y), and dense products only for the block pairs whose
# bound beats the smallest lower bound in X.  Every output is a max over the
# same floating-point products K[d] * g[y] as the all-pairs maximum, and each
# block bound is the product of maxima of the very K and g values the dense
# step multiplies; rounding is monotone, so no pruned product can exceed the
# result and the pruning is exact in floating point.
#
# - Geometry.  The offset windows, the block-pair offsets and the near
#   offsets depend on (n, N) only; `_geometry` builds them once per grid,
#   as read-only integer arrays.
# - Lower bound.  The products of every offset in the near cube
#   |s_i| <= _NEAR and of the largest sample of each of the _TOP blocks with
#   the largest maxima.  With K and g tiled twice along each axis, each of
#   these rows is a slice.
# - Block bound.  The lower bound already holds every near-cube product, so
#   a pair's bound takes the kernel maximum over its offset window minus
#   that cube: the max over the n slabs |s_i| > _NEAR, each separable.  Self
#   and neighbour pairs go when nothing outside the cube can beat the lower
#   bound.
# - Dense stage.  A pair's kernel block depends on y - x only (it is
#   Toeplitz): 2 _BLOCK - 1 window values per axis, gathered per kept pair.
#   A running maximum over (x, pairs) follows y through its block, and one
#   maximum.reduceat per X block finishes.

_BLOCK = 16        # block side per axis (16 points in 1-D, 16x16 tiles in 2-D)
_NEAR = 4          # lower bound: offsets up to this many nodes along each axis
_TOP = 8           # lower bound: the largest samples of this many blocks
_CHUNK = 1 << 18   # gathered kernel values per dense chunk


class _Geometry(NamedTuple):
    """Read-only integer arrays of one grid shape; nothing of K or g."""

    near: np.ndarray    # (count, n): the nonzero near-cube offsets mod N
    win: np.ndarray     # (2, 2 _BLOCK - 1, nb): per axis, win[0][r, o] is the
                        # offset r of the window joining blocks o apart;
                        # win[1] repeats a far offset in place of near ones
    rel: np.ndarray     # (nb^n, nb^n): block-offset code of the pair (X, Y)


@functools.lru_cache(maxsize=8)
def _geometry(n: int, N: int) -> _Geometry:
    nb, mask = N // _BLOCK, N - 1  # N is a power of two: & mask is mod N
    near = [s for s in itertools.product(range(-_NEAR, _NEAR + 1), repeat=n) if any(s)]
    # the offsets joining block X to block Y, per axis, are the window
    # _BLOCK * ((Y - X) mod nb) + [-(_BLOCK - 1), _BLOCK - 1]  (mod N),
    # here in descending order: win[r, o] = _BLOCK (o + 1) - 1 - r
    win = (_BLOCK * np.arange(1, nb + 1) - 1 - np.arange(2 * _BLOCK - 1)[:, None]) & mask
    # 2 _NEAR + 1 < _BLOCK, so every window holds an offset outside the near
    # range; repeating it in place of the near ones leaves the rest's maximum
    is_near = ((win + _NEAR) & mask) <= 2 * _NEAR
    far = win[np.argmin(is_near, axis=0), np.arange(nb)]
    code = np.indices((nb,) * n).reshape(n, -1)
    rel = 0
    for ax in range(n):
        rel = rel * nb + ((code[ax][None, :] - code[ax][:, None]) & (nb - 1))
    geo = _Geometry(np.array(near) & mask, np.stack([win, np.where(is_near, far, win)]), rel)
    for arr in geo:
        arr.flags.writeable = False
    return geo


def _offset_kernel(spec: GridSpec, t: float, a: float) -> np.ndarray:
    """(1 + d/t)^-a indexed by the per-axis offset (y - x) mod N."""
    off = np.arange(spec.points_per_axis) * spec.spacing
    d = np.minimum(off, spec.box_length - off)
    r = np.sqrt(sum(da * da for da in np.ix_(*(d,) * spec.dimension)))
    return (1.0 + r / t) ** (-a)


def _lower_bound(K: np.ndarray, g: np.ndarray, near: np.ndarray,
                 top: np.ndarray) -> np.ndarray:
    """Max of a subset of the products: each point's offsets in the near
    cube and the samples at `top` (grid coordinates, one column each)."""
    N, n = g.shape[0], g.ndim
    # tiled twice along each axis, every row is a slice:
    # g2[x + s] = g[(x + s) mod N] and K2[c + N - x] = K[(c - x) mod N]
    g2, K2 = np.tile(g, (2,) * n), np.tile(K, (2,) * n)
    lb = K[(0,) * n] * g
    for s in near.tolist():
        np.maximum(lb, K[tuple(s)] * g2[tuple(slice(si, si + N) for si in s)], out=lb)
    for c in top.T.tolist():
        np.maximum(lb, K2[tuple(slice(ci + N, ci, -1) for ci in c)] * g[tuple(c)], out=lb)
    return lb


def _tiles(v: np.ndarray, nb: int) -> np.ndarray:
    """A grid array as (blocks, points per block), blocks in raster order."""
    n = v.ndim
    split = v.reshape((nb, _BLOCK) * n)
    return split.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))) \
        .reshape(nb ** n, _BLOCK ** n)


def _window_table(K: np.ndarray, wins) -> np.ndarray:
    """T[r_0, o_0, r_1, o_1, ..] = K[wins[0][r_0, o_0], wins[1][r_1, o_1], ..]."""
    for ax, w in enumerate(wins):
        K = np.take(K, w, axis=2 * ax)
    return K


def peetre_maximal(spec: GridSpec, g: np.ndarray, t: float, a: float) -> np.ndarray:
    """max over grid y of g(y) / (1 + d(x,y)/t)^a with d the periodic distance.

    g must be nonnegative.  The result is the exact all-pairs maximum
    (bit-identical to it where the offsets are exact in floating point),
    found by bound and prune over blocks of nodes.
    """
    g = np.asarray(g, dtype=float).reshape(spec.shape)
    if not g.min() >= 0.0:
        raise ParameterError("the Peetre maximal function needs nonnegative samples")
    n, N, B = spec.dimension, spec.points_per_axis, _BLOCK
    nb = N // B
    geo = _geometry(n, N)
    K = _offset_kernel(spec, t, a)
    G = _tiles(g, nb)
    Gmax = G.max(axis=1)
    top = np.argpartition(Gmax, -min(_TOP, nb ** n))[-_TOP:]
    top = B * np.array(np.unravel_index(top, (nb,) * n)) \
        + np.array(np.unravel_index(G[top].argmax(axis=1), (B,) * n))
    out = _tiles(_lower_bound(K, g, geo.near, top), nb)

    r_axes, o_axes = tuple(range(0, 2 * n, 2)), tuple(range(1, 2 * n, 2))
    Kb = functools.reduce(np.maximum, (
        _window_table(K, [geo.win[int(ax == slab)] for ax in range(n)]).max(axis=r_axes)
        for slab in range(n)))
    keep = Kb.reshape(-1)[geo.rel] * Gmax > out.min(axis=1)[:, None]
    X, Y = np.divmod(np.flatnonzero(keep), nb ** n)

    # Kwin[r.., code]: the window values of every block offset; the row of
    # y = j over x = 0 .. B-1 is the slice r = B-1-j .. 2B-2-j of them
    Kwin = _window_table(K, [geo.win[0]] * n).transpose(r_axes + o_axes) \
        .reshape((2 * B - 1,) * n + (-1,))
    Gt = np.ascontiguousarray(G.T).reshape((B,) * n + (-1,))
    step = max(1, _CHUNK // (2 * B - 1) ** n)
    for start in range(0, X.size, step):
        xs, ys = X[start:start + step], Y[start:start + step]
        R = np.take(Kwin, geo.rel[xs, ys], axis=-1)
        gy = np.take(Gt, ys, axis=-1)
        # acc[x.., pair] = max over y of K[(y - x) mod N] * g[y]
        acc = prod = None
        for j in itertools.product(range(B), repeat=n):
            rows = R[tuple(slice(B - 1 - i, 2 * B - 1 - i) for i in j)]
            if acc is None:
                acc, prod = rows * gy[j], np.empty(rows.shape)
            else:
                np.maximum(acc, np.multiply(rows, gy[j], out=prod), out=acc)
        # X is sorted, so each block's pairs are contiguous
        first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        ux = xs[first]
        out[ux] = np.maximum(out[ux], np.maximum.reduceat(acc.reshape(B ** n, -1), first, axis=1).T)
    return out.reshape((nb,) * n + (B,) * n) \
        .transpose(tuple(i for ax in range(n) for i in (ax, n + ax))).reshape(spec.shape)


def _check_peetre_order(a: float, p: ExponentField, spec: GridSpec) -> None:
    if a <= spec.dimension / p.cached_min:
        warnings.warn(
            f"Peetre order a = {a} is not above n/p- = {spec.dimension / p.cached_min:g}; "
            "the maximal-function equivalence is outside its hypothesis",
            stacklevel=4,
        )


# -- the profile pipeline ------------------------------------------------------


def _scale_profile(spec: GridSpec, F: np.ndarray,
                   band: Callable[[np.ndarray], np.ndarray], level0: np.ndarray,
                   ladder: ScaleLadder, alpha: ExponentField, p: ExponentField,
                   a: Optional[float] = None) -> ScaleProfile:
    """The pipeline of the module docstring for f with spectrum F, one
    octave of ladder nodes at a time: `band(ts)` gives the multipliers of
    the nodes ts as one (nodes, *grid) block.  The maximal step runs, row
    by row, when a Peetre order a is given (t = 1 at level 0)."""
    if a is not None:
        _check_peetre_order(a, p, spec)
    h = spec.spacing ** spec.dimension
    # a constant exponent takes numpy's scalar-power path
    pv = p.cached_min if p.is_constant else p.grid_values()

    def norms(multipliers: np.ndarray, ts, weights) -> np.ndarray:
        g = np.abs(band_rows(spec, multipliers, F))
        g *= weights
        if a is not None:
            g = np.stack([peetre_maximal(spec, row, t, a) for row, t in zip(g, ts)])
        return solve_luxemburg_rows(g, pv, h).values

    octaves = [ladder.t[ladder.octave_slice(v)] for v in range(1, ladder.octaves + 1)]
    vals = np.concatenate([norms(band(ts), ts, _scale_weights(ts, alpha, spec.dimension))
                           for ts in octaves])
    return ScaleProfile(ladder, vals, float(norms(level0[None], [1.0], 1.0)[0]))


def lp_profile(f: GridFunction, frame: CalderonFrame, alpha: ExponentField,
               p: ExponentField) -> ScaleProfile:
    """Profile t -> Luxemburg norm of t^{-alpha(.)} (phi_t * f)."""
    return _scale_profile(f.spec, spectrum(f), frame.phi_block, frame.FPhi,
                          frame.ladder, alpha, p)


def peetre_profile(f: GridFunction, frame: CalderonFrame, alpha: ExponentField,
                   a: float, p: ExponentField) -> ScaleProfile:
    """Profile of Luxemburg norms of the Peetre maximal functions."""
    return _scale_profile(f.spec, spectrum(f), frame.phi_block, frame.FPhi,
                          frame.ladder, alpha, p, a)


# -- the norm forms -------------------------------------------------------------


def besov_norm(f: GridFunction, frame: CalderonFrame, alpha: ExponentField,
               p: ExponentField, q: ExponentField, form: str = "direct",
               a: float = 2.0, profile: Optional[ScaleProfile] = None) -> BesovNormReport:
    """Smoothness norm of f in the requested form (level-0 term + t-norm).

    A precomputed profile for the same (f, frame, alpha, p) may be passed to
    avoid recomputing band transforms when evaluating several forms.
    """
    if form in ("local_mean_prime", "local_mean_double_prime"):
        raise ParameterError("local-mean forms go through local_mean_norm()")
    if form not in FORMS:
        raise ParameterError(f"unknown form {form!r}")
    if profile is not None:
        prof = profile
    elif form == "peetre":
        prof = peetre_profile(f, frame, alpha, a, p)
    else:
        prof = lp_profile(f, frame, alpha, p)
    if form == "discretized":
        tpart = octave_block_norm(prof.values, frame.ladder, q)
    elif form == "q0":
        tpart = t_norm(prof.values, q, frame.ladder, "q0")
    else:
        tpart = t_norm(prof.values, q, frame.ladder, "variable")
    params = {"alpha": _field_echo(alpha), "p": _field_echo(p), "q": _field_echo(q),
              "a": a if form == "peetre" else None,
              "frame": {"profile_order": frame.profile.params.order,
                        "octaves": frame.ladder.octaves,
                        "nodes_per_octave": frame.ladder.nodes_per_octave}}
    return BesovNormReport(form, prof.level0 + tpart, prof, params)


def local_mean_norm(f: GridFunction, pair: LocalMeanPair, alpha: ExponentField,
                    p: ExponentField, q: ExponentField, a: float,
                    variant: str, ladder: ScaleLadder) -> BesovNormReport:
    """Local-means norm: "double_prime" plain, "prime" Peetre-maximalized.

    Requires alpha+ < S+1 (hypothesis of the local-means characterization).
    """
    if variant not in ("prime", "double_prime"):
        raise ParameterError(f"unknown local-mean variant {variant!r}")
    if alpha.cached_max >= pair.S + 1:
        raise HypothesisViolationError(
            f"alpha+ = {alpha.cached_max:g} must be below S+1 = {pair.S + 1} "
            "for the local-means characterization")
    prof = _scale_profile(f.spec, spectrum(f), pair.k_block,
                          pair.k0_spectrum_at(f.spec.freq_radius()), ladder, alpha, p,
                          a if variant == "prime" else None)
    tpart = t_norm(prof.values, q, ladder, "variable")
    form = "local_mean_prime" if variant == "prime" else "local_mean_double_prime"
    params = {"alpha": _field_echo(alpha), "p": _field_echo(p), "q": _field_echo(q),
              "a": a if variant == "prime" else None,
              "kernel": {"S": pair.S, "m": pair.m, "epsilon": pair.epsilon}}
    return BesovNormReport(form, prof.level0 + tpart, prof, params)


def write_profile_csv(profile: ScaleProfile, path: str) -> None:
    """CSV of (t, value) rows for plotting, with the level-0 term at t = inf
    spelled as a leading comment row."""
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["t", "value"])
        w.writerow(["level0", repr(float(profile.level0))])
        for t, v in zip(profile.ladder.t, profile.values):
            w.writerow([repr(float(t)), repr(float(v))])
