import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from oracles import solve_luxemburg_bisection, solve_luxemburg_rows_bisection
from vbesov.atoms import analyze, sequence_norm_b
from vbesov.bank import make_member, weierstrass
from vbesov.config import RunConfig
from vbesov import luxemburg
from vbesov.errors import ConstructionError, ParameterError, UnsupportedFeatureError
from vbesov.grid import from_spectrum, spectrum
from vbesov.luxemburg import (RTOL, mixed_core, octave_block_norm, solve_luxemburg,
                              solve_luxemburg_rows)

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


def _level_term(f, p):
    """f as one `mixed_core` level in L^{p(.)} on its grid: (values,
    exponent, weights)."""
    h = f.spec.spacing ** f.spec.dimension
    return np.abs(f.samples).reshape(-1), p.samples, np.full(f.spec.size, h)


def test_mixed_one_term_collapse(unit_box):
    f = vb.from_callable(unit_box, lambda x: np.exp(-9 * x ** 2))
    p = vb.constant_field(unit_box, 2.0)
    mixed = mixed_core([_level_term(f, p)], [2.0])
    assert mixed == pytest.approx(vb.luxemburg_norm(f, p).value, rel=1e-8)


def test_mixed_classical_oracle(unit_box):
    fs = [vb.from_callable(unit_box, lambda x, k=k: np.cos(k * x) * np.exp(-x ** 2))
          for k in (1, 3, 9, 27)]
    p0, q0 = 2.0, 3.0
    p = vb.constant_field(unit_box, p0)
    mixed = mixed_core([_level_term(f, p) for f in fs], [q0] * len(fs))
    oracle = sum(vb.luxemburg_norm(f, p).value ** q0 for f in fs) ** (1 / q0)
    assert mixed == pytest.approx(oracle, rel=1e-8)


def test_mixed_zero_and_empty(unit_box, ladder):
    # all-zero levels, and an all-zero profile over the t-axis
    p = vb.constant_field(unit_box, 2.0)
    zero = vb.from_callable(unit_box, lambda x: np.zeros_like(x))
    assert mixed_core([_level_term(zero, p)] * 2, [2.0, 3.0]) == 0.0
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    assert octave_block_norm(np.zeros(ladder.t.size), ladder, q) == 0.0


def test_mixed_q_infinity_unsupported(ladder):
    with pytest.raises(UnsupportedFeatureError):
        octave_block_norm(np.ones(ladder.t.size), ladder, None)


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


def test_t_norm_sup_is_an_unknown_form(ladder):
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    with pytest.raises(ParameterError, match="unknown t-norm form 'sup'"):
        vb.t_norm(ladder.t ** 0.5, q, ladder, "sup")


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-300.0, 300.0))
def test_homogeneity_at_any_magnitude(unit_box, log10_c):
    c = 10.0 ** log10_c
    p = vb.field_from_callable(unit_box, lambda x: 2 + np.abs(np.sin(3 * x)), "p", 2.0)
    f = vb.from_callable(unit_box, lambda x: np.cos(5 * x) * np.exp(-x ** 2))
    base = vb.luxemburg_norm(f, p).value
    scaled = vb.luxemburg_norm(f.with_samples(c * f.samples), p).value
    assert scaled == pytest.approx(c * base, rel=1e-9)
    v = np.array([1.0, 2.0, 3.0])
    one = solve_luxemburg(v, [4.0, 4.0, 5.0], 1.0).value
    assert solve_luxemburg(c * v, [4.0, 4.0, 5.0], 1.0).value == pytest.approx(c * one, rel=1e-9)


# -- Newton against the bisection oracle ----------------------------------------

# the two exponent configurations of the benchmark workloads
EXPONENT_CONFIGS = {
    "const": RunConfig(p="2", alpha="1 / 2", q="2"),
    "variable": RunConfig(p="3 + sin(2 * pi * x / 16)",
                          alpha="3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                          q="2 + 1 / log(e + 1 / t)"),
}


def _inputs(spec):
    """Bank members in 1-D; in 2-D (the bank is 1-D) members of the same
    kinds built on the plane: localized, oscillating, rough."""
    if spec.dimension == 1:
        return [make_member(spec, name) for name in
                ("gauss_w05", "modgauss_f16", "smoothstep_w1", "weier_s03",
                 "weier_s12", "tone_k40", "bandnoise_a", "bandnoise_c")]
    w0 = 2 * np.pi / spec.box_length
    return [vb.from_callable(spec, fn) for fn in (
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / 0.5),
        lambda x, y: np.cos(4 * x + 3 * y) * np.exp(-(x ** 2 + y ** 2) / 2),
        lambda x, y: weierstrass(x, 0.3, w0, 5) * np.exp(-y ** 2 / 2))]


@pytest.mark.parametrize("dimension, N", [(1, 4096), (2, 64)])
@pytest.mark.parametrize("config", sorted(EXPONENT_CONFIGS))
def test_newton_matches_bisection_oracle_on_band_profiles(dimension, N, config):
    spec = vb.make_grid(dimension, 16.0, N)
    ladder = vb.make_ladder()
    frame = vb.build_resolution_of_unity(spec, ladder)
    cfg = EXPONENT_CONFIGS[config]
    pv, av = cfg.p_field(spec).grid_values(), cfg.alpha_field(spec).grid_values()
    h = spec.spacing ** dimension
    rng = np.random.default_rng(N + len(config))
    for f in _inputs(spec):
        F = spectrum(f)
        for t in ladder.t[::5]:
            g = np.abs(from_spectrum(spec, frame.phi_t_spectrum(t) * F).samples) * t ** (-av)
            g *= 10.0 ** rng.uniform(-300.0, 300.0)
            new, old = solve_luxemburg(g, pv, h), solve_luxemburg_bisection(g, pv, h)
            assert abs(new.value - old.value) <= 2 * RTOL * old.value
            if config == "const":
                assert new.iterations == 0
            elif N == 4096:
                assert 1 <= new.iterations <= 6


def _skewed_inputs(count, seed=3):
    """Random modulars with e+/e- up to 80 and terms over 14 decades; some
    overflow float64 at the lower end of the bracket."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 50))
        yield (10.0 ** rng.uniform(-6, 0, n), rng.uniform(1, rng.uniform(1.5, 80), n),
               10.0 ** rng.uniform(-12, 2, n))


def test_newton_climbs_from_the_lower_end_in_few_steps():
    # from lo the iterates climb monotonically: at most 7 steps on all of
    # these; started from hi, the first steps overshoot below the bracket
    # and dozens of bisection steps follow
    worst = 0
    for v, e, w in _skewed_inputs(1000):
        new, old = solve_luxemburg(v, e, w), solve_luxemburg_bisection(v, e, w)
        assert abs(new.value - old.value) <= 2 * RTOL * old.value
        worst = max(worst, new.iterations)
    assert worst <= 8


def test_newton_falls_back_to_bisection_where_the_modular_overflows():
    # rho(lo) = 1e-180 * (1e-12)^-60 overflows: the first Newton step is not
    # finite and only the bracket safeguard keeps the iterate in range
    v, e, w = [1.0, 1e-3], [1.0, 60.0], [1e-12, 1.0]
    new, old = solve_luxemburg(v, e, w), solve_luxemburg_bisection(v, e, w)
    assert math.isfinite(new.value)
    assert abs(new.value - old.value) <= 2 * RTOL * old.value
    assert new.iterations <= 8 < old.iterations


def test_vanishing_terms_do_not_stop_the_solver():
    # zero values with the largest exponent: 0 * an overflowed power is NaN
    v, e, w = [1.0, 0.0, 1e-3], [1.0, 60.0, 30.0], [1e-12, 1.0, 1.0]
    new, old = solve_luxemburg(v, e, w), solve_luxemburg_bisection(v, e, w)
    assert abs(new.value - old.value) <= 2 * RTOL * old.value


def _use_bisection(monkeypatch):
    """Replace both solvers, the one-row call and the row solver of the
    octave blocks, at every vbesov module attribute holding them; returns a
    list that grows by the number of rows of each oracle call."""
    solved = []

    def one_row(*args, **kwargs):
        solved.append(1)
        return solve_luxemburg_bisection(*args, **kwargs)

    def rows(*args, **kwargs):
        out = solve_luxemburg_rows_bisection(*args, **kwargs)
        solved.append(len(out.values))
        return out

    swaps = {"solve_luxemburg": (solve_luxemburg, one_row),
             "solve_luxemburg_rows": (solve_luxemburg_rows, rows)}
    for name, mod in list(sys.modules.items()):
        if name.startswith("vbesov"):
            for attr, (fn, oracle) in swaps.items():
                if getattr(mod, attr, None) is fn:
                    monkeypatch.setattr(mod, attr, oracle)
    return solved


@pytest.mark.parametrize("config", sorted(EXPONENT_CONFIGS))
def test_every_form_matches_the_bisection_oracle(monkeypatch, config):
    spec = vb.make_grid(1, 16.0, 256)
    ladder = vb.make_ladder(4, 12)
    V = 4
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    cfg = EXPONENT_CONFIGS[config]
    p, alpha, q = cfg.p_field(spec), cfg.alpha_field(spec), cfg.q_field(ladder)

    def values(solved):
        out, rows = {}, {}

        def run(key, fn):
            before = sum(solved)
            out[key] = fn()
            rows[key] = sum(solved) - before

        for name in ("gauss_w05", "weier_s03", "bandnoise_a"):
            f = make_member(spec, name)
            for form in ("direct", "discretized", "q0", "peetre"):
                run((name, form), lambda: vb.besov_norm(f, frame, alpha, p, q, form).value)
            for form in ("local_mean_prime", "local_mean_double_prime"):
                run((name, form), lambda: vb.local_mean_norm(f, pair, alpha, p, q, 2.0,
                                                             form).value)
            run((name, "octave_block"), lambda: octave_block_norm(
                vb.lp_profile(f, frame, alpha, p).values, ladder, q))
            dec = analyze(f, frame, V=V)
            for form in ("continuous", "discrete"):
                run((name, form), lambda: sequence_norm_b(dec, alpha, p, q, form))
        return out, rows

    new, _ = values([])
    old, rows = values(_use_bisection(monkeypatch))
    assert new.keys() == old.keys()
    for key, ref in old.items():
        assert new[key] == pytest.approx(ref, rel=1e-9, abs=0.0), key
        # the oracle really ran: for every ladder node, or per level for
        # the discrete coefficient norm, which has no t-axis
        assert rows[key] > (V if key[1] == "discrete" else ladder.t.size), key


# -- the row solver of the octave blocks ----------------------------------------


def test_rows_of_one_block_do_not_interact():
    # one call over rows that take every branch of the solver: the all-zero
    # closed form, normalization at both ends of float64, the overflowing
    # modular that forces bisection steps, and a constant exponent
    v, e = [1.0, 0.5], [2.0, 3.0]
    rows = [([0.0, 0.0], e, [1.0, 1.0]),
            (v, e, [0.3, 0.7]),
            ([1e-300, 5e-301], e, [0.3, 0.7]),
            ([1e300, 5e299], e, [0.3, 0.7]),
            ([1.0, 1e-3], [1.0, 60.0], [1e-12, 1.0]),
            (v, [2.0, 2.0], [0.3, 0.7])]
    vals, expo, weights = (np.array(x) for x in zip(*rows))
    block = solve_luxemburg_rows(vals, expo, weights)
    assert block.modulars is None
    steps = []
    for j, (vj, ej, wj) in enumerate(rows):
        one, old = solve_luxemburg(vj, ej, wj), solve_luxemburg_bisection(vj, ej, wj)
        assert abs(block.values[j] - one.value) <= 2 * RTOL * one.value, j
        assert abs(block.values[j] - old.value) <= 2 * RTOL * old.value, j
        assert block.iterations[j] == one.iterations, j
        assert tuple(block.brackets[j]) == one.bracket, j
        steps.append(one.iterations)
    assert block.values[0] == 0.0
    assert steps[0] == steps[5] == 0 < min(steps[1:5])
    reported = solve_luxemburg_rows(vals, expo, weights, report=True).modulars
    assert reported[0] == 0.0 and np.allclose(reported[1:], 1.0, rtol=1e-8)


def test_a_zero_term_beside_an_overflowing_power_stays_zero_in_a_block():
    # row 1 has a zero where the power overflows at its lower bracket end
    # (lo ~ 1e-6, root ~ 1e-3); 0 * inf would be NaN, and the block cannot
    # drop the column, which row 0 needs
    vals = np.array([[1.0, 1e-3, 1e-3], [1.0, 0.0, 1e-3]])
    expo, weights = np.array([1.0, 60.0, 2.0]), np.array([1e-12, 1.0, 1.0])
    block = solve_luxemburg_rows(vals, expo, weights)
    for j in range(2):
        with np.errstate(over="ignore", invalid="ignore"):   # the oracle's own NaN
            old = solve_luxemburg_bisection(vals[j], expo, weights)
        assert abs(block.values[j] - old.value) <= 2 * RTOL * old.value, j


@pytest.mark.parametrize("zeros", [0.3, 0.5])
@pytest.mark.parametrize("exponent", ["broadcast", "per-row"])
def test_rows_with_different_zero_patterns_get_the_bits_of_one_row_calls(exponent, zeros):
    # a broadcast 1-D exponent is what the profile pipeline passes; a block
    # that summed its rows over shared columns, or along a strided axis,
    # would move most rows by an ulp or more
    rng = np.random.default_rng(3)
    for _ in range(25):
        vals = rng.random((4, 300))
        vals[rng.random(vals.shape) < zeros] = 0.0
        expo = 1.5 + rng.random(300 if exponent == "broadcast" else (4, 300))
        weights = rng.random(300)
        block = solve_luxemburg_rows(vals, expo, weights, report=True)
        for j in range(4):
            one = solve_luxemburg(vals[j], expo if expo.ndim == 1 else expo[j], weights)
            assert block.values[j] == one.value, j
            assert block.iterations[j] == one.iterations, j
            assert block.modulars[j] == one.modular_at_value, j


@pytest.mark.parametrize("vals, expo, weights", [
    ([1.0, math.nan], [2.0, 3.0], 1.0),
    ([1.0, math.inf], [2.0, 3.0], 1.0),
    ([1.0, 0.5], [2.0, math.nan], 1.0),
    ([1.0, 0.5], [2.0, math.inf], 1.0),
    ([1.0, 0.5], [2.0, 3.0], [1.0, math.nan]),
    ([1.0, 0.5], [2.0, 3.0], math.inf),
    ([0.0, 0.0], [2.0, math.nan], 1.0),
])
def test_non_finite_input_is_rejected_before_iterating(vals, expo, weights):
    with pytest.raises(ParameterError, match="finite"):
        solve_luxemburg(vals, expo, weights)
    with pytest.raises(ParameterError, match="finite"):
        solve_luxemburg_rows(np.array([vals, vals]), expo, weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("form", ["variable", "q0"])
def test_t_norm_rejects_a_non_finite_profile(ladder, bad, form):
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    g = np.ones(ladder.t.size)
    g[7] = bad
    with pytest.raises(ParameterError, match="finite"):
        vb.t_norm(g, q, ladder, form)


def test_bracket_guard_steps_by_ulps():
    # a constant exponent returns the closed form scale * R^(1/p); for these
    # values the modular at R^(1/2) rounds above 1, and the guard moves the
    # result by ulps (a relative 1e-12 step moved it by about 4500)
    v = np.random.default_rng(0).random(64)
    scale = v.max()
    closed = scale * float(np.sum(0.01 * (v / scale) ** 2.0)) ** 0.5
    res = solve_luxemburg(v, 2.0, 0.01)
    assert res.value != closed
    assert abs(res.value - closed) <= 4 * np.spacing(closed)
    assert solve_luxemburg_rows(np.stack([v, v]), 2.0, 0.01).values.tolist() == [res.value] * 2


def test_bracket_guard_raises_when_the_modular_stays_above_one(monkeypatch):
    real = luxemburg._scaled_terms
    monkeypatch.setattr(luxemburg, "_scaled_terms", lambda *args: 2.0 * real(*args))
    with pytest.raises(ConstructionError, match="bracket"):
        solve_luxemburg([1.0, 0.5], [2.0, 3.0], [0.3, 0.7])
