"""Scale profiles and the smoothness norm in its equivalent forms.

Every form is a level-0 term plus a t-norm of one scale profile, and every
profile but the p = 2 ones (below) comes from one pipeline
(`_scale_profile`): per ladder node t, the Luxemburg norm in L^p(.) of
nonnegative rows times t^-s(x), for the maximal forms after the Peetre
maximal function of order a.  That step prunes on linear values, so it
takes the power t^-s(x); otherwise the row solve takes its log -s(x) log t
(`smoothness`).  The unit of work is the octave: its nodes form one
(nodes, *grid) block with one row-wise Luxemburg solve.  For a norm the
rows are |kernel multiplier at t times the spectrum of f|, one batched
inverse FFT per octave, and s = alpha; `atoms.sequence_norm_b` feeds the
level indicator sums with s = alpha + n/2.
The kernels are radial, so the bands of a real f are real: a real f runs on
its half (`rfftn`) spectrum, with one batched `irfftn` per octave and |.|
taken in place, and a complex f on the full spectrum (`grid.band_spectrum`
picks the layout).  A kernel (a resolution of unity or a local-mean pair)
gives the pipeline its octave `blocks` and `level0` on the half grid, and
`ladder`.  `FORMS` names each form's kernel class, maximal step and t-norm,
and `besov_norm` computes all six.

At p = 2 the Luxemburg norm of a band is its L^2 norm, and Plancherel gives
that exactly from the spectrum: h^n sum_x |band|^2 = sum_k |A_k F_k|^2 / L^n.
So when p is the constant 2, alpha is constant and the form has no maximal
step (`direct`, `discretized`, `q0` and `local_mean_double_prime`, with
either kernel, in 1-D and 2-D, for real and complex f), each node is t^-alpha
times `grid.band_l2_norms` of its multipliers and F, with no inverse FFT
and no Luxemburg solve.  Every other input takes the pipeline above.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ParameterError
from .exponents import ExponentField
from .frame import CalderonFrame, LocalMeanPair
from .grid import GridFunction, GridSpec, band_l2_norms, band_rows, band_spectrum
from .luxemburg import (ScaleLadder, _check_q, octave_block_norm, solve_luxemburg_rows,
                        t_norm)

Kernel = CalderonFrame | LocalMeanPair


class Form(NamedTuple):
    kernel: type        # CalderonFrame (Phi, phi_t) or LocalMeanPair (k0, k_t)
    maximal: bool       # whether the Peetre maximal step runs
    t_norm: Callable[[np.ndarray, ExponentField, ScaleLadder], float]


def _t_norm(form: str):
    return lambda g, q, ladder: t_norm(g, q, ladder, form)


# direct, discretized and q0 are three t-norms of one profile: variable q over
# dt/t, the octave blocks, and the fixed exponent q(0)
FORMS: Dict[str, Form] = {
    "direct": Form(CalderonFrame, False, _t_norm("variable")),
    "discretized": Form(CalderonFrame, False,
                        lambda g, q, ladder: octave_block_norm(g, ladder, q)),
    "q0": Form(CalderonFrame, False, _t_norm("q0")),
    "peetre": Form(CalderonFrame, True, _t_norm("variable")),
    "local_mean_prime": Form(LocalMeanPair, True, _t_norm("variable")),
    "local_mean_double_prime": Form(LocalMeanPair, False, _t_norm("variable")),
}


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


def _exponent(field: ExponentField):
    """A field's samples; a constant one as a scalar (numpy's scalar-power path)."""
    return field.cached_min if field.is_constant else field.grid_values()


def _scale_weights(ts: np.ndarray, s, n: int) -> np.ndarray:
    """t^{-s(x)} for every t in ts, one row per t; a scalar s gives one scalar power per row."""
    if np.ndim(s) == 0:
        return np.array([t ** (-s) for t in ts]).reshape((-1,) + (1,) * n)
    return np.power(ts.reshape((-1,) + (1,) * n), -s)


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


@functools.lru_cache(maxsize=8)
def _distances(spec: GridSpec) -> np.ndarray:
    """The periodic distance d of every per-axis offset (y - x) mod N, built
    once per grid and shared read-only."""
    off = np.arange(spec.points_per_axis) * spec.spacing
    d = np.minimum(off, spec.box_length - off)
    r = np.sqrt(sum(da * da for da in np.ix_(*(d,) * spec.dimension)))
    r.flags.writeable = False
    return r


def _offset_kernel(spec: GridSpec, t: float, a: float) -> np.ndarray:
    """(1 + d/t)^-a indexed by the per-axis offset (y - x) mod N."""
    return (1.0 + _distances(spec) / t) ** (-a)


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
    """Reject a non-finite Peetre order a, and warn, at the caller of the
    function that calls this, when a <= n/p-."""
    if not np.isfinite(a):
        raise ParameterError(f"Peetre order a must be finite, got {a}")
    if a <= spec.dimension / p.cached_min:
        warnings.warn(
            f"Peetre order a = {a} is not above n/p- = {spec.dimension / p.cached_min:g}; "
            "the maximal-function equivalence is outside its hypothesis",
            stacklevel=3,
        )


# -- the profile pipeline ------------------------------------------------------


def _scale_profile(spec: GridSpec, rows: Iterable[np.ndarray], level0: np.ndarray,
                   ladder: ScaleLadder, s, p, a: Optional[float] = None) -> ScaleProfile:
    """The pipeline of the module docstring.  `rows` gives each octave's
    nonnegative (nodes, *grid) block, and octaves it does not reach stay
    zero; `level0` is the (1, *grid) row of the level-0 term, at t = 1.  s
    and p are samples, or scalars when constant.  Without a maximal step the
    weights t^{-s(x)} enter the row solve as their logs; with one (a given)
    they multiply the block in place, and the maximal step runs row by row."""
    h = spec.spacing ** spec.dimension

    def norms(g: np.ndarray, ts: np.ndarray) -> np.ndarray:
        if a is None:   # t^{-s(x)} enters the solver's log terms
            return solve_luxemburg_rows(g, p, h, smoothness=(s, ts)).values
        # the maximal step prunes on linear values, so it takes the power
        g *= _scale_weights(ts, s, spec.dimension)
        g = np.stack([peetre_maximal(spec, row, t, a) for row, t in zip(g, ts)])
        return solve_luxemburg_rows(g, p, h).values

    vals = np.zeros(ladder.t.size)
    for v, g in enumerate(rows, start=1):
        sl = ladder.octave_slice(v)
        vals[sl] = norms(g, ladder.t[sl])
    return ScaleProfile(ladder, vals, float(norms(level0, np.ones(1))[0]))


def _kernel_profile(f: GridFunction, kernel: Kernel, alpha: ExponentField,
                    p: ExponentField, a: Optional[float] = None) -> ScaleProfile:
    """The profile of f with the kernel's multipliers, one octave block at a
    time, in the layout of f's bands (`grid.band_spectrum`).  At p = 2 with
    a constant alpha and no maximal step each node is an L^2 norm, which
    Parseval gives from the spectrum (`grid.band_l2_norms`); otherwise one
    batched transform per octave gives the bands, and a real f's real bands
    take |.| in place."""
    spec, F, ladder, blocks = f.spec, band_spectrum(f), kernel.ladder, kernel.blocks
    if a is None and p.is_constant and p.cached_min == 2.0 and alpha.is_constant:
        vals = np.zeros(ladder.t.size)
        for v, A in enumerate(blocks, start=1):
            sl = ladder.octave_slice(v)
            vals[sl] = band_l2_norms(spec, A, F) * _scale_weights(ladder.t[sl],
                                                                  alpha.cached_min, 0)
        return ScaleProfile(ladder, vals, float(band_l2_norms(spec, kernel.level0[None], F)[0]))

    def magnitudes(multipliers: np.ndarray) -> np.ndarray:
        g = band_rows(spec, multipliers, F)
        return np.abs(g, out=g) if np.isrealobj(g) else np.abs(g)

    return _scale_profile(spec, map(magnitudes, blocks), magnitudes(kernel.level0[None]),
                          ladder, _exponent(alpha), _exponent(p), a)


# -- the norm ------------------------------------------------------------------


def besov_norm(f: GridFunction, kernel: Kernel, alpha: ExponentField,
               p: ExponentField, q: ExponentField, form: str = "direct",
               a: float = 2.0, profile: Optional[ScaleProfile] = None) -> BesovNormReport:
    """Smoothness norm of f in `form` (level-0 term + t-norm) with the kernel
    class, maximal step and t-norm of its row in FORMS.  Every input is
    checked before any transform; a precomputed profile for the same (f,
    kernel, alpha, p, maximal step) saves the band transforms."""
    if form not in FORMS:
        raise ParameterError(f"unknown form {form!r}")
    row = FORMS[form]
    if not isinstance(kernel, row.kernel):
        raise ParameterError(f"form {form!r} needs a {row.kernel.__name__}, "
                             f"got a {type(kernel).__name__}")
    kernel.check_alpha(alpha)
    _check_q(q)
    if row.maximal:
        _check_peetre_order(a, p, f.spec)
    a = a if row.maximal else None
    prof = profile if profile is not None else _kernel_profile(f, kernel, alpha, p, a)
    params = {"alpha": _field_echo(alpha), "p": _field_echo(p), "q": _field_echo(q),
              "a": a, **kernel.echo()}
    return BesovNormReport(form, prof.level0 + row.t_norm(prof.values, q, kernel.ladder),
                           prof, params)


# perfbench/tracer.py patches the next three names; each is one call into
# the pipeline above


def lp_profile(f: GridFunction, frame: Kernel, alpha: ExponentField,
               p: ExponentField) -> ScaleProfile:
    """Profile t -> Luxemburg norm of t^{-alpha(.)} (phi_t * f)."""
    return _kernel_profile(f, frame, alpha, p)


def peetre_profile(f: GridFunction, frame: Kernel, alpha: ExponentField,
                   a: float, p: ExponentField) -> ScaleProfile:
    """Profile of Luxemburg norms of the Peetre maximal functions."""
    _check_peetre_order(a, p, f.spec)
    return _kernel_profile(f, frame, alpha, p, a)


def local_mean_norm(f: GridFunction, pair: LocalMeanPair, alpha: ExponentField,
                    p: ExponentField, q: ExponentField, a: float,
                    form: str) -> BesovNormReport:
    """`besov_norm` with a local-mean pair."""
    return besov_norm(f, pair, alpha, p, q, form, a)
