"""The pruned Peetre maximal function against the all-pairs oracle."""

import itertools

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from vbesov import besov
from vbesov.besov import _NEAR, _TOP, _distances, _offset_kernel, peetre_maximal
from vbesov.errors import ParameterError
from oracles import peetre_maximal_bruteforce

ORDERS = (0.5, 2.0, 4.0)
NODES = tuple(vb.make_ladder().t) + (1.0,)  # every ladder node and level 0
INPUTS = ("zeros", "constant", "ties", "spike", "gaussians", "band_noise",
          "noise_floor", "plateaus", "tiny", "huge")


def _inputs(spec):
    """Named nonnegative sample arrays covering the pruning's corner cases."""
    rng = np.random.default_rng(spec.points_per_axis + 10 * spec.dimension)
    shape, r = spec.shape, spec.radius()
    x = spec.coords()
    x0 = x if spec.dimension == 1 else x[..., 0]
    gauss = np.exp(-((x0 - 1.5) / 0.4) ** 2) + 0.3 * np.exp(-(r / 0.1) ** 2)
    spike = np.zeros(shape)
    spike[(spec.points_per_axis // 3,) * spec.dimension] = 1.0
    band = spec.freq_radius()
    noise = np.fft.fftn(rng.standard_normal(shape))
    noise[(band < 1.0) | (band > 3.0)] = 0.0
    noise = np.abs(np.fft.ifftn(noise))
    ties = np.where(np.arange(spec.size).reshape(shape) % 5 < 2, 0.25, 0.5)
    ties[(0,) * spec.dimension] = 0.75
    floor = np.where(r < 0.3, 1.0, 1e-17 * rng.random(shape))
    # wide tied plateaus on a zero floor: outside them the maximizer is the
    # nearest edge, neither a neighbour nor one of the largest samples
    plateaus = np.where(np.abs(x0 - 2.1) < 1.3, 1.0, np.where(r < 0.9, 0.5, 0.0))
    return dict(zip(INPUTS, (np.zeros(shape), np.full(shape, 0.7), ties, spike,
                             gauss, noise, floor, plateaus, 1e-300 * gauss,
                             1e300 * gauss)))


def _cases(full):
    """(node, order, input name) triples: the full product, or every node
    once with the (order, input) pairs cycled so that each pair occurs."""
    pairs = list(itertools.product(ORDERS, INPUTS))
    if full:
        return [(t, a, name) for t in NODES for a, name in pairs]
    return [(t,) + pairs[i % len(pairs)] for i, t in enumerate(NODES)]


@pytest.mark.parametrize("dimension, box, points, full", [
    (1, 16.0, 16, True),      # a single block; the near cube covers 9 of 16 offsets
    (1, 16.0, 32, True),      # two blocks: block offsets +1 and -1 are the same
    (1, 16.0, 64, True),
    (1, 10.0, 64, True),
    (1, 16.0, 2048, False),
    (1, 10.0, 2048, False),   # non-dyadic: offsets * spacing are inexact
    (2, 16.0, 16, False),     # a single tile
    (2, 16.0, 32, False),
])
def test_peetre_maximal_equals_oracle(dimension, box, points, full):
    spec = vb.make_grid(dimension, box, points)
    inputs = _inputs(spec)
    for t, a, name in _cases(full):
        got = peetre_maximal(spec, inputs[name], t, a)
        want = peetre_maximal_bruteforce(spec, inputs[name], t, a)
        assert got.shape == spec.shape
        assert np.array_equal(got, want), (name, t, a)


def test_peetre_maximal_equals_oracle_2d_64():
    # four tiles per axis: block offsets 1 and 3 differ, unlike at N = 32
    spec = vb.make_grid(2, 16.0, 64)
    inputs = _inputs(spec)
    for t, a, name in ((NODES[60], 0.5, "band_noise"), (NODES[90], 4.0, "plateaus")):
        got = peetre_maximal(spec, inputs[name], t, a)
        assert np.array_equal(got, peetre_maximal_bruteforce(spec, inputs[name], t, a))


@pytest.mark.parametrize("points, n_cases", [(16, len(NODES)),
                                              (32, len(ORDERS) * len(INPUTS))])
def test_peetre_maximal_non_dyadic_2d(points, n_cases):
    # coordinate differences round differently from offset * spacing here
    spec = vb.make_grid(2, 10.0, points)
    inputs = _inputs(spec)
    for t, a, name in _cases(False)[:n_cases]:
        got = peetre_maximal(spec, inputs[name], t, a)
        want = peetre_maximal_bruteforce(spec, inputs[name], t, a)
        assert np.all(np.abs(got - want) <= 1e-13 * want), (name, t, a)


def test_peetre_maximal_rejects_negative():
    spec = vb.make_grid(1, 16.0, 64)
    g = np.ones(spec.shape)
    g[3] = -1.0
    with pytest.raises(ParameterError):
        peetre_maximal(spec, g, 0.1, 2.0)
    g[3] = np.nan
    with pytest.raises(ParameterError):
        peetre_maximal(spec, g, 0.1, 2.0)


# -- the pruning around the near cube -------------------------------------------


def _just_outside_the_cube(spec, y0):
    """Samples that make the product at offset _NEAR + 1 along one axis the
    only one the lower bound misses: 1 at y0 on a background c0 between that
    product and every product farther out, and decoys of 2 in _TOP blocks
    far from y0 that take every top slot of the lower bound."""
    n, N = spec.dimension, spec.points_per_axis
    K = _offset_kernel(spec, spec.spacing, 4.0)   # (1 + |s|)^-4, s in nodes
    s = np.abs(((np.indices(spec.shape) + N // 2) % N) - N // 2)
    edge = (s.max(axis=0) == _NEAR + 1) & (s.sum(axis=0) == _NEAR + 1)
    k1, k2 = K[edge].max(), K[(s.max(axis=0) > _NEAR) & ~edge].max()
    g = np.full(spec.shape, 0.5 * (k1 + k2))
    g[y0] = 1.0
    # decoys at the block centres 12 or more nodes from y0: 2 (1 + 7)^-4 is
    # below the background at every point within 5 nodes of y0
    centres = [tuple(16 * bi + 8 for bi in b) for b in np.ndindex(*(N // 16,) * n)]
    far = [c for c in centres
           if np.hypot.reduce([min(abs(ci - yi), N - abs(ci - yi)) for ci, yi in zip(c, y0)]) >= 12]
    assert len(far) >= _TOP
    for c in far:
        g[c] = 2.0
    return g


@pytest.mark.parametrize("dimension, points, y0", [
    (1, 256, (50,)),          # x = 45 lies in the block before y0's, x = 55 in its own
    (2, 64, (18, 20)),        # likewise along each axis; the slabs of the bound
    (2, 64, (33, 47)),        # y0 at a tile's last column
])
def test_maximizer_just_outside_the_near_cube(dimension, points, y0):
    # at offset _NEAR + 1 from y0 the maximum is the product with y0; the
    # lower bound there holds only the background, so the pair of blocks is
    # kept only if its bound counts the offset _NEAR + 1
    spec = vb.make_grid(dimension, 16.0, points)
    g = _just_outside_the_cube(spec, y0)
    got, want = (f(spec, g, spec.spacing, 4.0) for f in (peetre_maximal, peetre_maximal_bruteforce))
    assert np.array_equal(got, want)
    K = _offset_kernel(spec, spec.spacing, 4.0)
    for ax in range(dimension):
        for sign in (-1, 1):
            x = list(y0)
            x[ax] -= sign * (_NEAR + 1)
            s = [0] * dimension
            s[ax] = sign * (_NEAR + 1)
            assert got[tuple(x)] == K[tuple(s)] > g.min()


def test_ties_between_near_and_outside_products():
    # at x = 29 the product with y = 30 (offset 1, in the near cube), the one
    # with y = 34 (offset _NEAR + 1, outside it) and the background are the
    # same float: the bound of the pair holding y = 34 ties the lower bound,
    # and the maximum is that value whichever products are kept
    spec = vb.make_grid(1, 16.0, 64)
    t, a = spec.spacing, 2.0
    K = _offset_kernel(spec, t, a)
    target = K[_NEAR + 1] * 0.75
    g1 = target / K[1]
    for _ in range(8):
        if K[1] * g1 == target:
            break
        g1 = np.nextafter(g1, np.inf if K[1] * g1 < target else -np.inf)
    assert K[1] * g1 == target
    g = np.full(spec.shape, target)
    g[30], g[29 + _NEAR + 1] = g1, 0.75
    got = peetre_maximal(spec, g, t, a)
    assert np.array_equal(got, peetre_maximal_bruteforce(spec, g, t, a))
    assert got[29] == target


def test_geometry_is_built_per_grid_and_read_only():
    # grids interleaved in one process: each call must read its own geometry
    besov._geometry.cache_clear()
    grids = ((1, 64), (2, 32), (1, 2048), (2, 16))
    for _ in range(2):
        for dimension, points in grids:
            spec = vb.make_grid(dimension, 16.0, points)
            g = _inputs(spec)["band_noise"]
            assert np.array_equal(peetre_maximal(spec, g, 0.2, 2.0),
                                  peetre_maximal_bruteforce(spec, g, 0.2, 2.0))
    assert besov._geometry.cache_info().currsize == len(grids)
    for key in grids:
        for arr in besov._geometry(*key):
            assert isinstance(arr, np.ndarray) and arr.dtype.kind == "i"
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1


@st.composite
def _samples(draw):
    dimension, points = draw(st.sampled_from([(1, 16), (1, 32), (1, 64), (2, 16), (2, 32)]))
    spec = vb.make_grid(dimension, 16.0, points)
    # plateaus and zeros from a few levels, the rest arbitrary in [0, 1]
    levels = st.sampled_from([0.0, 0.0, 0.5, 1.0])
    g = draw(hnp.arrays(float, spec.shape, elements=levels | st.floats(0.0, 1.0),
                        fill=levels))
    return spec, g * draw(st.sampled_from([1.0, 1e-300, 1e300]))


@settings(max_examples=60, deadline=None)
@given(_samples(), st.sampled_from(NODES), st.sampled_from(ORDERS))
def test_peetre_maximal_property(case, t, a):
    spec, g = case
    assert np.array_equal(peetre_maximal(spec, g, t, a),
                          peetre_maximal_bruteforce(spec, g, t, a))


def test_distance_array_is_held_once_per_grid_and_read_only():
    spec = vb.make_grid(1, 16.0, 256)
    r = _distances(spec)
    assert r is _distances(vb.make_grid(1, 16.0, 256))
    # the distances depend on the box length as well as on (n, N)
    assert np.array_equal(_distances(vb.make_grid(1, 8.0, 256)), r / 2)
    with pytest.raises(ValueError):
        r[1] = 0.0
    with pytest.raises(ValueError):
        _distances(vb.make_grid(2, 16.0, 32))[0, 1] = 0.0
