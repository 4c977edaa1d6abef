import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from vbesov.errors import ParameterError, UnsupportedFeatureError
from vbesov.luxemburg import octave_block_norm, solve_luxemburg

# frozen from a 1e6-node trapezoid quadrature of int_0^1 x^(1+x) dx
INT_X_POW_1PX = 0.40303444442160025


@pytest.fixture(scope="module")
def unit_box():
    return vb.make_grid(1, 1.0, 1024)


def test_ladder_invariants(ladder):
    assert np.all(np.diff(ladder.t) < 0)
    assert ladder.t[0] <= 1.0 and ladder.t[-1] > 0
    for v in range(1, ladder.octaves + 1):
        sl = ladder.octave_slice(v)
        assert abs(ladder.weights[sl].sum() - math.log(2.0)) < 1e-12
        assert np.all(ladder.t[sl] <= 2.0 ** (1 - v) + 1e-15)
        assert np.all(ladder.t[sl] >= 2.0 ** (-v) - 1e-15)


def test_modular_indicator(unit_box):
    # indicator of a sub-box of measure 1: the whole unit box
    f = vb.from_callable(unit_box, lambda x: np.ones_like(x))
    p = vb.field_from_callable(unit_box, lambda x: 2 + x ** 2, "p", 2.0)
    assert vb.modular(f, p) == pytest.approx(1.0, abs=1e-12)


def test_modular_constant_two(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.full_like(x, 2.0))
    p = vb.constant_field(unit_box, 2.0)
    assert vb.modular(f, p) == pytest.approx(4.0, abs=1e-12)


def test_modular_dense_quadrature_oracle():
    # f(x) = x on [0,1], p(x) = 1 + x, embedded in a larger box
    spec = vb.make_grid(1, 4.0, 4096)
    x = spec.axis_coords()
    f = vb.GridFunction(spec, np.where((x >= 0) & (x < 1), x, 0.0))
    p = vb.make_exponent_field(np.where((x >= 0) & (x < 1), 1 + x, 2.0), "p",
                               spec=spec)
    assert vb.modular(f, p) == pytest.approx(INT_X_POW_1PX, abs=5e-4)


def test_luxemburg_unit_indicator(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.ones_like(x))
    p = vb.field_from_callable(unit_box, lambda x: 2 + np.sin(2 * np.pi * x) ** 2,
                               "p", 2.0)
    r = vb.luxemburg_norm(f, p)
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_luxemburg_sin_l2(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.sin(2 * np.pi * x))
    p = vb.constant_field(unit_box, 2.0)
    r = vb.luxemburg_norm(f, p)
    assert r.value == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_luxemburg_dense_scan_oracle(unit_box):
    # independent oracle: 1e4 log-spaced lambdas, sign change of modular - 1
    p = vb.field_from_callable(unit_box, lambda x: 2 + np.sin(2 * np.pi * x) ** 2,
                               "p", 2.0)
    f = vb.from_callable(unit_box, lambda x: 3 * np.exp(-40 * x ** 2))
    r = vb.luxemburg_norm(f, p)
    h = unit_box.spacing
    pv = p.grid_values()
    lams = np.geomspace(r.value / 10, r.value * 10, 10_000)
    mods = np.array([np.sum(np.abs(f.samples) ** pv * h * lam ** (-pv))
                     for lam in lams])
    idx = np.flatnonzero(np.diff(np.sign(mods - 1.0)))
    assert idx.size >= 1
    lo, hi = lams[idx[0]], lams[idx[0] + 1]
    assert lo <= r.value * (1 + 1e-8) and r.value <= hi * (1 + 1e-8)
    assert abs(r.modular_at_value - 1.0) < 1e-8


def test_unit_ball_property(bank4k):
    p = bank4k.exponents["p_sin"]
    for name in list(bank4k.names())[:6]:
        f = bank4k[name]
        r = vb.luxemburg_norm(f, p)
        rho = vb.modular(f, p)
        if r.value <= 1.0:
            assert rho <= 1.0 + 1e-9
        if rho <= 1.0:
            assert r.value <= 1.0 + 1e-9


@pytest.mark.parametrize("c", [0.1, 3.0, 100.0])
def test_homogeneity(unit_box, c):
    p = vb.field_from_callable(unit_box, lambda x: 2 + np.abs(np.sin(3 * x)), "p", 2.0)
    f = vb.from_callable(unit_box, lambda x: np.cos(5 * x) * np.exp(-x ** 2))
    base = vb.luxemburg_norm(f, p).value
    scaled = vb.luxemburg_norm(f.with_samples(c * f.samples), p).value
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_constant_exponent_reduction(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.exp(-x ** 2) * (1 + np.sin(7 * x)))
    for p0 in (1.0, 2.0, 3.5):
        p = vb.constant_field(unit_box, p0)
        direct = vb.modular(f, vb.constant_field(unit_box, p0)) ** (1.0 / p0)
        assert vb.luxemburg_norm(f, p).value == pytest.approx(direct, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_monotonicity(seed):
    spec = vb.make_grid(1, 4.0, 256)
    rng = np.random.default_rng(seed)
    p = vb.make_exponent_field(1.0 + 2.0 * rng.random(spec.size), "p", spec=spec)
    g = rng.random(spec.size)
    f = g * rng.random(spec.size)  # |f| <= |g| pointwise
    nf = vb.luxemburg_norm(vb.GridFunction(spec, f), p).value
    ng = vb.luxemburg_norm(vb.GridFunction(spec, g), p).value
    assert nf <= ng + 1e-10


def test_zero_function(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.zeros_like(x))
    p = vb.constant_field(unit_box, 2.0)
    r = vb.luxemburg_norm(f, p)
    assert r.value == 0.0 and r.iterations == 0


def test_mixed_one_term_collapse(unit_box, ladder):
    f = vb.from_callable(unit_box, lambda x: np.exp(-9 * x ** 2))
    p = vb.constant_field(unit_box, 2.0)
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    mixed = vb.mixed_sequence_norm([f], p, q)
    assert mixed == pytest.approx(vb.luxemburg_norm(f, p).value, rel=1e-8)


def test_mixed_classical_oracle(unit_box, ladder):
    fs = [vb.from_callable(unit_box, lambda x, k=k: np.cos(k * x) * np.exp(-x ** 2))
          for k in (1, 3, 9, 27)]
    p0, q0 = 2.0, 3.0
    p = vb.constant_field(unit_box, p0)
    q = vb.q_field_from_callable(ladder.t, lambda t: q0 + 0 * t, q0)
    mixed = vb.mixed_sequence_norm(fs, p, q)
    oracle = sum(vb.luxemburg_norm(f, p).value ** q0 for f in fs) ** (1 / q0)
    assert mixed == pytest.approx(oracle, rel=1e-8)


def test_mixed_zero_and_empty(unit_box, ladder):
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    p = vb.constant_field(unit_box, 2.0)
    zero = vb.from_callable(unit_box, lambda x: np.zeros_like(x))
    assert vb.mixed_sequence_norm([], p, q) == 0.0
    assert vb.mixed_sequence_norm([zero, zero], p, q) == 0.0


def test_mixed_q_infinity_unsupported(unit_box):
    p = vb.constant_field(unit_box, 2.0)
    f = vb.from_callable(unit_box, lambda x: np.ones_like(x))
    with pytest.raises(UnsupportedFeatureError):
        vb.mixed_sequence_norm([f], p, None)


def test_t_norm_constant_closed_form():
    lad = vb.make_ladder(8, 4)
    q0 = 2.5
    q = vb.q_field_from_callable(lad.t, lambda t: q0 + 0 * t, q0)
    c = 1.7
    val = vb.t_norm(np.full(lad.t.size, c), q, lad, "variable")
    assert val == pytest.approx(c * (8 * math.log(2)) ** (1 / q0), rel=1e-9)


def test_t_norm_single_node():
    lad = vb.make_ladder(4, 3)
    q0 = 2.0
    q = vb.q_field_from_callable(lad.t, lambda t: q0 + 0 * t, q0)
    g = np.zeros(lad.t.size)
    g[5] = 2.0
    val = vb.t_norm(g, q, lad, "variable")
    assert val == pytest.approx(2.0 * lad.weights[5] ** (1 / q0), rel=1e-9)


def test_t_norm_variable_vs_q0():
    # spec'd comparison at V=8, J=4: both forms computed independently
    lad = vb.make_ladder(8, 4)
    q = vb.q_field_from_callable(
        lad.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)
    g = lad.t ** 0.3
    ratio = vb.t_norm(g, q, lad, "variable") / vb.t_norm(g, q, lad, "q0")
    assert 1 / 1.5 <= ratio <= 1.5


def test_t_norm_sup_form(ladder):
    g = ladder.t ** 0.5
    assert vb.t_norm(g, None, ladder, "sup") == pytest.approx(g.max())


def test_t_norm_node_mismatch(ladder):
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    with pytest.raises(ParameterError):
        vb.t_norm(np.ones(3), q, ladder, "variable")


def test_octave_block_constant_q_collapse(ladder):
    q0 = 2.0
    q = vb.q_field_from_callable(ladder.t, lambda t: q0 + 0 * t, q0)
    g = np.zeros(ladder.t.size)
    a = np.array([1.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.1, 0.7])
    for v in range(1, 9):
        g[ladder.octave_slice(v)] = a[v - 1]
    val = octave_block_norm(g, ladder, q)
    oracle = (math.log(2.0) * np.sum(a ** q0)) ** (1 / q0)
    assert val == pytest.approx(oracle, rel=1e-9)


def test_solve_luxemburg_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        solve_luxemburg(np.ones(4), np.array([1.0, 2.0, 0.0, 1.0]), 1.0)


def test_luxemburg_norm_2d_equals_flattened():
    spec = vb.make_grid(2, 16.0, 32)
    f = vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)))
    h2 = spec.spacing ** 2
    for p in (vb.constant_field(spec, 3.0, "p"),
              vb.field_from_callable(spec, lambda x, y: 2 + 0.5 * np.cos(x) * np.sin(y),
                                     "p", 2.0)):
        flat = solve_luxemburg(np.abs(f.samples).reshape(-1),
                               p.grid_values().reshape(-1), h2).value
        assert vb.luxemburg_norm(f, p).value == flat
        w = f.with_samples(np.ones(spec.shape))
        assert vb.luxemburg_norm(f, p, w).value == flat
