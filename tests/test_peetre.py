"""The pruned Peetre maximal function against the all-pairs oracle."""

import itertools

import numpy as np
import pytest

import vbesov as vb
from vbesov.besov import peetre_maximal
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
    (1, 16.0, 16, True),      # a single block
    (1, 16.0, 64, True),
    (1, 10.0, 64, True),
    (1, 16.0, 2048, False),
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
