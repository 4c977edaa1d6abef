"""Scale profiles and the smoothness norm in its equivalent forms.

Forms: "direct" (variable-q Luxemburg norm of the profile over dt/t),
"discretized" (octave blocks in the mixed sequence space), "q0" (fixed
exponent q(0)), "peetre" (maximal-function profiles), and the local-mean
variants "local_mean_prime" / "local_mean_double_prime".  Every form is
level-0 term + t-norm of a profile; only the profile producer changes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import HypothesisViolationError, ParameterError
from .exponents import ExponentField
from .frame import CalderonFrame, LocalMeanPair
from .grid import GridFunction, GridSpec, from_spectrum, spectrum
from .luxemburg import ScaleLadder, octave_block_norm, solve_luxemburg, t_norm

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


def _scale_weight(t: float, alpha: ExponentField) -> np.ndarray:
    """t^{-alpha(x)} on the grid (scalar for constant alpha)."""
    if alpha.is_constant:
        return np.asarray(t ** (-alpha.cached_min))
    return np.power(t, -alpha.grid_values())


def lp_profile(f: GridFunction, frame: CalderonFrame, alpha: ExponentField,
               p: ExponentField) -> ScaleProfile:
    """Profile t -> Luxemburg norm of t^{-alpha(.)} (phi_t * f)."""
    F = spectrum(f)
    h = f.spec.spacing ** f.spec.dimension
    pv = p.grid_values()
    vals = np.empty(frame.ladder.t.size)
    for i, t in enumerate(frame.ladder.t):
        band = from_spectrum(f.spec, frame.phi_t_spectrum(t) * F)
        g = band.abs_samples() * _scale_weight(t, alpha)
        vals[i] = solve_luxemburg(g, pv, h).value
    level0 = solve_luxemburg(np.abs(frame.level0_transform(f).samples), pv, h).value
    return ScaleProfile(frame.ladder, vals, level0)


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

_BLOCK = 16        # block side per axis (16 points in 1-D, 16x16 tiles in 2-D)
_NEAR = 2          # lower bound: offsets up to this many nodes along each axis
_TOP = 8           # lower bound: this many largest samples
_CHUNK = 1 << 18   # products per dense chunk


def _offset_kernel(spec: GridSpec, t: float, a: float) -> np.ndarray:
    """(1 + d/t)^-a indexed by the per-axis offset (y - x) mod N."""
    off = np.arange(spec.points_per_axis) * spec.spacing
    d = np.minimum(off, spec.box_length - off)
    if spec.dimension == 1:
        return (1.0 + d / t) ** (-a)
    return (1.0 + np.sqrt(d[:, None] ** 2 + d[None, :] ** 2) / t) ** (-a)


def _lower_bound(K: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Max of a subset of the products: the point itself, its nearest
    offsets and the largest samples."""
    n, N = g.ndim, g.shape[0]
    axes = tuple(range(n))
    lb = K[(0,) * n] * g
    for s in np.ndindex(*(2 * _NEAR + 1,) * n):
        s = tuple(si - _NEAR for si in s)
        if any(s):
            np.maximum(lb, K[s] * np.roll(g, [-si for si in s], axis=axes), out=lb)
    ar = np.arange(N)
    for y in np.argpartition(g, -_TOP, axis=None)[-_TOP:]:
        yc = np.unravel_index(y, g.shape)
        np.maximum(lb, K[np.ix_(*[(c - ar) & (N - 1) for c in yc])] * g[yc], out=lb)
    return lb


def _tiles(v: np.ndarray, nb: int) -> np.ndarray:
    """A grid array as (blocks, points per block), blocks in raster order."""
    n = v.ndim
    split = v.reshape((nb, _BLOCK) * n)
    return split.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))) \
        .reshape(nb ** n, _BLOCK ** n)


def peetre_maximal(spec: GridSpec, g: np.ndarray, t: float, a: float) -> np.ndarray:
    """max over grid y of g(y) / (1 + d(x,y)/t)^a with d the periodic distance.

    g must be nonnegative.  The result is the exact all-pairs maximum
    (bit-identical to it where the offsets are exact in floating point),
    found by bound and prune over blocks of nodes.
    """
    g = np.asarray(g, dtype=float).reshape(spec.shape)
    if not g.min() >= 0.0:
        raise ParameterError("the Peetre maximal function needs nonnegative samples")
    n, N = spec.dimension, spec.points_per_axis
    nb = N // _BLOCK
    mask = N - 1  # N is a power of two: & mask is mod N, also for negatives
    K = _offset_kernel(spec, t, a)
    out = _tiles(_lower_bound(K, g), nb)
    G = _tiles(g, nb)

    # the offsets joining block X to block Y, per axis, are the window
    # _BLOCK * ((Y - X) mod nb) + [-(_BLOCK - 1), _BLOCK - 1]  (mod N)
    win = (_BLOCK * np.arange(nb)[:, None] + np.arange(1 - _BLOCK, _BLOCK)) & mask
    Kb = K
    for ax in range(n):
        Kb = np.take(Kb, win, axis=ax).max(axis=ax + 1)
    tc = np.indices((nb,) * n).reshape(n, -1)
    rel = np.zeros((nb ** n,) * 2, dtype=np.int64)
    for ax in range(n):
        rel = rel * nb + ((tc[ax][None, :] - tc[ax][:, None]) & (nb - 1))
    bound = Kb.reshape(-1)[rel] * G.max(axis=1)[None, :]
    X, Y = np.nonzero(bound > out.min(axis=1)[:, None])

    # W[pair, y, x] = K[(y - x) mod N] * g[y] over the two blocks of a pair
    loc = np.indices((_BLOCK,) * n).reshape(n, -1)
    dloc = [loc[ax][:, None] - loc[ax][None, :] for ax in range(n)]
    Kf = K.reshape(-1)
    step = max(1, _CHUNK // _BLOCK ** (2 * n))
    for start in range(0, X.size, step):
        xs, ys = X[start:start + step], Y[start:start + step]
        # the kernel block of a pair depends only on the block offset Y - X
        uo, inv = np.unique(rel[xs, ys], return_inverse=True)
        idx = 0
        for ax in range(n):
            shift = _BLOCK * (uo // nb ** (n - 1 - ax) % nb)
            idx = idx * N + ((shift[:, None, None] + dloc[ax]) & mask)
        W = Kf[idx][inv]
        W *= G[ys][:, :, None]
        # X is sorted (row-major nonzero), so each block's rows are contiguous
        first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        ux = xs[first]
        out[ux] = np.maximum(out[ux], np.maximum.reduceat(W.max(axis=1), first, axis=0))
    return out.reshape((nb,) * n + (_BLOCK,) * n) \
        .transpose(tuple(i for ax in range(n) for i in (ax, n + ax))).reshape(spec.shape)


def _check_peetre_order(a: float, p: ExponentField, spec: GridSpec) -> None:
    if a <= spec.dimension / p.cached_min:
        warnings.warn(
            f"Peetre order a = {a} is not above n/p- = {spec.dimension / p.cached_min:g}; "
            "the maximal-function equivalence is outside its hypothesis",
            stacklevel=3,
        )


def peetre_profile(f: GridFunction, frame: CalderonFrame, alpha: ExponentField,
                   a: float, p: ExponentField) -> ScaleProfile:
    """Profile of Luxemburg norms of the Peetre maximal functions."""
    _check_peetre_order(a, p, f.spec)
    F = spectrum(f)
    h = f.spec.spacing ** f.spec.dimension
    pv = p.grid_values()
    vals = np.empty(frame.ladder.t.size)
    for i, t in enumerate(frame.ladder.t):
        band = from_spectrum(f.spec, frame.phi_t_spectrum(t) * F).abs_samples()
        g = band * _scale_weight(t, alpha)
        vals[i] = solve_luxemburg(peetre_maximal(f.spec, g, t, a), pv, h).value
    g0 = np.abs(frame.level0_transform(f).samples)
    level0 = solve_luxemburg(peetre_maximal(f.spec, g0, 1.0, a), pv, h).value
    return ScaleProfile(frame.ladder, vals, level0)


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
    F = spectrum(f)
    h = f.spec.spacing ** f.spec.dimension
    pv = p.grid_values()
    sr = f.spec.freq_radius()
    vals = np.empty(ladder.t.size)
    if variant == "prime":
        _check_peetre_order(a, p, f.spec)
    for i, t in enumerate(ladder.t):
        band = from_spectrum(f.spec, pair.k_spectrum_at(t * sr) * F).abs_samples()
        g = band * _scale_weight(t, alpha)
        if variant == "prime":
            g = peetre_maximal(f.spec, g, t, a)
        vals[i] = solve_luxemburg(g, pv, h).value
    g0 = from_spectrum(f.spec, pair.k0_spectrum_at(sr) * F).abs_samples()
    if variant == "prime":
        g0 = peetre_maximal(f.spec, g0, 1.0, a)
    level0 = solve_luxemburg(g0, pv, h).value
    prof = ScaleProfile(ladder, vals, level0)
    tpart = t_norm(prof.values, q, ladder, "variable")
    form = "local_mean_prime" if variant == "prime" else "local_mean_double_prime"
    params = {"alpha": _field_echo(alpha), "p": _field_echo(p), "q": _field_echo(q),
              "a": a if variant == "prime" else None,
              "kernel": {"S": pair.S, "m": pair.m, "epsilon": pair.epsilon}}
    return BesovNormReport(form, level0 + tpart, prof, params)


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
