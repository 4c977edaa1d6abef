import dataclasses
import math

import numpy as np
import pytest

import vbesov as vb
from vbesov import besov
from vbesov.bank import make_member
from vbesov.besov import FORMS, peetre_maximal
from vbesov.config import RunConfig
from vbesov.errors import HypothesisViolationError, ParameterError, UnsupportedFeatureError
from vbesov.grid import from_spectrum, spectrum


@pytest.fixture(scope="module")
def setup2k():
    spec = vb.make_grid(1, 16.0, 2048)
    ladder = vb.make_ladder()
    frame = vb.build_resolution_of_unity(spec, ladder)
    fields = {
        "p2": vb.constant_field(spec, 2.0),
        "a0": vb.constant_field(spec, 0.0, "alpha"),
        "a05": vb.constant_field(spec, 0.5, "alpha"),
        "q2": vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0),
        "qlog": vb.q_field_from_callable(
            ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0),
    }
    return spec, ladder, frame, fields


def test_zero_function_all_forms(setup2k):
    spec, ladder, frame, F = setup2k
    zero = vb.from_callable(spec, lambda x: np.zeros_like(x))
    for form in ("direct", "discretized", "q0", "peetre"):
        rep = vb.besov_norm(zero, frame, F["a05"], F["p2"], F["qlog"], form)
        assert rep.value == 0.0
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    for form in ("local_mean_prime", "local_mean_double_prime"):
        rep = vb.local_mean_norm(zero, pair, F["a05"], F["p2"], F["qlog"],
                                 2.0, form)
        assert rep.value == 0.0


def test_profile_zero(setup2k):
    spec, ladder, frame, F = setup2k
    zero = vb.from_callable(spec, lambda x: np.zeros_like(x))
    prof = vb.lp_profile(zero, frame, F["a0"], F["p2"])
    assert prof.level0 == 0.0 and np.all(prof.values == 0.0)


def test_pure_tone_annulus_consistency(setup2k):
    spec, ladder, frame, F = setup2k
    xi0 = 8.0 * 2 * np.pi / spec.box_length  # exact grid frequency, |xi0| ~ 3.14
    f = vb.from_callable(spec, lambda x: np.cos(xi0 * x))
    prof = vb.lp_profile(f, frame, F["a0"], F["p2"])
    active = (ladder.t > 1 / (2 * xi0)) & (ladder.t < 2 / xi0)
    assert np.all(prof.values[~active] <= 1e-10)
    assert prof.values[active].max() > 0.1


def _all_forms(f, frame, pair, alpha, p, q, ladder):
    """The six forms of the norm of f, keyed by form name."""
    out = {form: vb.besov_norm(f, frame, alpha, p, q, form).value
           for form in ("direct", "discretized", "q0", "peetre")}
    for form in ("local_mean_prime", "local_mean_double_prime"):
        out[form] = vb.local_mean_norm(
            f, pair, alpha, p, q, 2.0, form).value
    return out


def test_scaling_all_forms(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=1)
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    g = f.with_samples(17.0 * f.samples)
    a = _all_forms(f, frame, pair, F["a05"], F["p2"], F["qlog"], ladder)
    b = _all_forms(g, frame, pair, F["a05"], F["p2"], F["qlog"], ladder)
    assert len(a) == 6
    for form in a:
        assert b[form] == pytest.approx(17.0 * a[form], rel=1e-8), form


# the benchmark's two exponent configs; the 2-D fields vary along both axes
HOMOGENEITY_CONFIGS = {
    "const": RunConfig(p="2", alpha="1 / 2", q="2"),
    "variable": RunConfig(p="3 + sin(2 * pi * x / 16)",
                          alpha="3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                          q="2 + 1 / log(e + 1 / t)"),
}


@pytest.mark.parametrize("config", sorted(HOMOGENEITY_CONFIGS))
@pytest.mark.parametrize("dimension", [1, 2])
def test_every_form_is_homogeneous_at_any_magnitude(dimension, config):
    # every power of the pipeline is taken of values divided by their
    # maximum (the Parseval squares of p = 2 where it lies outside
    # 2^-400 .. 2^400), so ||c f|| = c ||f|| holds to a few ulps (1e-15
    # relative, 4.5 ulps; 2 measured) wherever c f and the norm are normal
    # float64 numbers.  Without the division, `discretized` raised and `q0` read
    # inf from 1e160 up, and both were 0.6 off at 1e-200
    cfg = HOMOGENEITY_CONFIGS[config]
    if dimension == 1:
        spec, ladder = vb.make_grid(1, 16.0, 512), vb.make_ladder(6, 12)
        f = make_member(spec, "gauss_w05")
        p, alpha = cfg.p_field(spec), cfg.alpha_field(spec)
    else:
        # 3 octaves of 10 nodes: a 2-D maximal profile takes about 0.45 s,
        # against 1 s at 5 octaves of 12
        spec, ladder = vb.make_grid(2, 16.0, 64), vb.make_ladder(3, 10)
        f = vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2) / 2)
                             * (1 + 0.5 * np.cos(3 * x)))
        if config == "const":
            p, alpha = vb.constant_field(spec, 2.0, "p"), vb.constant_field(spec, 0.5, "alpha")
        else:
            p = vb.field_from_callable(spec, lambda x, y: 3 + np.sin(2 * np.pi * x / 16),
                                       "p", 3.0)
            alpha = vb.field_from_callable(spec, lambda x, y: 0.3 + 0.2 * np.cos(y),
                                           "alpha", 0.3)
    q = cfg.q_field(ladder)
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=2 if dimension == 1 else 1)
    base = _all_forms(f, frame, pair, alpha, p, q, ladder)
    assert len(base) == 6
    for c in (1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300):
        scaled = _all_forms(f.with_samples(c * f.samples), frame, pair, alpha, p, q, ladder)
        for form, v in base.items():
            assert scaled[form] == pytest.approx(c * v, rel=1e-15, abs=0.0), (form, c)


def test_all_forms_2d_swap_and_scaling():
    spec = vb.make_grid(2, 8.0, 16)
    ladder = vb.make_ladder(4, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=0)  # S = 1 fails moment certification this coarse
    # exponents symmetric in (x, y), so swapping the axes of f is an isometry
    p = vb.field_from_callable(spec, lambda x, y: 2.5 + 0.5 * np.sin(x) * np.sin(y), "p", 2.5)
    alpha = vb.field_from_callable(
        spec, lambda x, y: 0.4 + 0.2 * np.cos(x / 2) * np.cos(y / 2), "alpha", 0.4)
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)

    def fn(x, y):
        return np.cos(2 * x + y) * np.exp(-(x ** 2 + 3 * y ** 2) / 4)

    f = vb.from_callable(spec, fn)
    swapped = vb.from_callable(spec, lambda x, y: fn(y, x))
    base = _all_forms(f, frame, pair, alpha, p, q, ladder)
    swap = _all_forms(swapped, frame, pair, alpha, p, q, ladder)
    scaled = _all_forms(f.with_samples(17.0 * f.samples), frame, pair, alpha, p, q, ladder)
    assert len(base) == 6
    for form, v in base.items():
        assert v > 0
        assert swap[form] == pytest.approx(v, rel=1e-12), form
        assert scaled[form] == pytest.approx(17.0 * v, rel=1e-10), form


def test_peetre_domination(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.sin(3 * x) * np.exp(-x ** 2 / 3))
    t = float(ladder.t[10])
    g = np.abs(from_spectrum(spec, frame.phi_t_spectrum(t) * spectrum(f)).samples)
    maximal = peetre_maximal(spec, g, t, a=2.0)
    assert np.all(maximal >= g - 1e-14)


def test_peetre_constant_case(setup2k):
    spec, ladder, frame, F = setup2k
    g = np.full(spec.shape, 0.7)
    maximal = peetre_maximal(spec, g, 0.1, a=2.0)
    assert np.max(np.abs(maximal - 0.7)) < 1e-12


def test_peetre_orders_comparable(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    n2 = vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "peetre", a=2.0).value
    n4 = vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "peetre", a=4.0).value
    ratio = n2 / n4
    assert 1 / 3 <= ratio <= 3
    # larger a means smaller maximal function
    assert n4 <= n2 + 1e-12


def test_peetre_warns_below_np(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    with pytest.warns(UserWarning):
        vb.peetre_profile(f, frame, F["a0"], a=0.25, p=F["p2"])


def test_local_mean_hypothesis_violation(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=1)
    alpha_high = vb.constant_field(spec, 2.5, "alpha")
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    with pytest.raises(HypothesisViolationError):
        vb.local_mean_norm(f, pair, alpha_high, F["p2"], F["q2"], 2.0,
                           "local_mean_double_prime")


def test_local_mean_vs_direct(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=1)
    f = vb.from_callable(spec, lambda x: np.cos(6 * x) * np.exp(-x ** 2 / 2))
    direct = vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "direct").value
    double = vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["q2"], 2.0,
                                "local_mean_double_prime").value
    ratio = double / direct
    assert 1 / 10 <= ratio <= 10


def test_form_chain_small(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    vals = [
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "direct").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "q0").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "discretized").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "peetre", a=2.0).value,
        vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["qlog"], 2.0,
                           "local_mean_prime").value,
        vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["qlog"], 2.0,
                           "local_mean_double_prime").value,
    ]
    for v in vals:
        assert v > 0
        assert max(v / min(vals), max(vals) / v) <= 10


def test_direct_value_exceeds_level0(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(2 * x) * np.exp(-x ** 2))
    rep = vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "direct")
    assert rep.value >= rep.profile.level0


def test_weierstrass_slope(setup2k):
    spec, ladder, frame, F = setup2k
    from vbesov.bank import weierstrass
    s = 0.5
    om0 = 2 * np.pi / spec.box_length
    f = vb.from_callable(spec, lambda x: weierstrass(x, s, om0))
    prof = vb.lp_profile(f, frame, F["a0"], F["p2"])
    pts = []
    for v in range(2, 8):
        sl = ladder.octave_slice(v)
        pts.append((np.mean(np.log2(ladder.t[sl])),
                    np.mean(np.log2(prof.values[sl]))))
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    assert abs(slope - s) <= 0.1


def test_unknown_form_rejected(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    with pytest.raises(ParameterError):
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "nonsense")
    with pytest.raises(ParameterError):
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "local_mean_prime")


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_maximal_forms_reject_a_non_finite_peetre_order(setup2k, monkeypatch, a):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    # rejected before any transform: the profile is never built
    monkeypatch.setattr(besov, "_kernel_profile", None)
    with pytest.raises(ParameterError, match="Peetre order a must be finite"):
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "peetre", a=a)
    with pytest.raises(ParameterError, match="Peetre order a must be finite"):
        besov.peetre_profile(f, frame, F["a05"], a, F["p2"])


@pytest.mark.parametrize("form", list(FORMS))
def test_one_entry_point_for_every_form(setup2k, form):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    need = FORMS[form].kernel
    right, wrong = (frame, pair) if need is vb.CalderonFrame else (pair, frame)
    assert vb.besov_norm(f, right, F["a05"], F["p2"], F["qlog"], form).value > 0
    with pytest.raises(ParameterError, match=f"form '{form}' needs a {need.__name__}"):
        vb.besov_norm(f, wrong, F["a05"], F["p2"], F["qlog"], form)


class _Transformed(Exception):
    pass


def test_bad_inputs_fail_before_any_transform(setup2k, monkeypatch):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, ladder, S=1)
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))

    def transform(*args, **kwargs):
        raise _Transformed

    monkeypatch.setattr(besov, "band_rows", transform)
    monkeypatch.setattr(besov, "band_spectrum", transform)
    q_unbounded = dataclasses.replace(F["q2"], cached_max=math.inf)
    cases = [
        (frame, F["a05"], F["q2"], "nonsense", ParameterError, "unknown form"),
        (pair, F["a05"], F["q2"], "direct", ParameterError, "needs a CalderonFrame"),
        (frame, F["a05"], F["q2"], "local_mean_prime", ParameterError, "needs a LocalMeanPair"),
        (pair, vb.constant_field(spec, 2.5, "alpha"), F["q2"], "local_mean_double_prime",
         HypothesisViolationError, r"below S\+1 = 2"),
        (frame, F["a05"], None, "direct", UnsupportedFeatureError, "q = infinity"),
        (frame, F["a05"], F["p2"], "q0", ParameterError, "q_of_t"),
        (frame, F["a05"], q_unbounded, "discretized", UnsupportedFeatureError, "q. must be finite"),
    ]
    for kernel, alpha, q, form, error, match in cases:
        with pytest.raises(error, match=match):
            vb.besov_norm(f, kernel, alpha, F["p2"], q, form)
    # a valid request reaches the transform, after the Peetre order warning
    with pytest.warns(UserWarning, match="Peetre order"), pytest.raises(_Transformed):
        vb.besov_norm(f, pair, F["a05"], F["p2"], F["q2"], "local_mean_prime", a=0.25)


def test_p2_profiles_take_no_band_transform(monkeypatch):
    # p = 2, a constant alpha and no maximal step: every node is an L^2
    # norm, summed over f's spectrum (the half layout for a real f, the
    # full one for a complex f); every other input transforms its bands
    spec, ladder = vb.make_grid(1, 16.0, 256), vb.make_ladder(4, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    fc = f.with_samples(f.samples * np.exp(0.5j * spec.axis_coords()))
    p2, p3 = vb.constant_field(spec, 2.0), vb.constant_field(spec, 3.0)
    a05 = vb.constant_field(spec, 0.5, "alpha")
    a_var = vb.field_from_callable(spec, lambda x: 0.5 + 0.2 * np.sin(x), "alpha", 0.5)
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)

    def norm(g, alpha, p, form):
        kernel = pair if FORMS[form].kernel is vb.LocalMeanPair else frame
        return vb.besov_norm(g, kernel, alpha, p, q, form).value

    def transform(*args, **kwargs):
        raise _Transformed

    monkeypatch.setattr(besov, "band_rows", transform)
    for g in (f, fc):
        for form in ("direct", "discretized", "q0", "local_mean_double_prime"):
            assert norm(g, a05, p2, form) > 0
    for g, alpha, p, form in [(f, a_var, p2, "direct"), (f, a05, p3, "direct"),
                              (f, a05, p2, "peetre"), (f, a05, p2, "local_mean_prime"),
                              (fc, a_var, p2, "local_mean_double_prime"),
                              (fc, a05, p3, "discretized"), (fc, a05, p2, "peetre")]:
        with pytest.raises(_Transformed):
            norm(g, alpha, p, form)


def test_peetre_warning_points_at_the_caller():
    spec, ladder = vb.make_grid(1, 16.0, 256), vb.make_ladder(4, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    p, alpha = vb.constant_field(spec, 2.0), vb.constant_field(spec, 0.5, "alpha")
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    with pytest.warns(UserWarning) as record:
        vb.besov_norm(f, frame, alpha, p, q, "peetre", a=0.25)
    assert record[0].filename == __file__
    with pytest.warns(UserWarning) as record:
        vb.peetre_profile(f, frame, alpha, a=0.25, p=p)
    assert record[0].filename == __file__


def test_peetre_norm_2d_smoke():
    spec = vb.make_grid(2, 16.0, 32)
    ladder = vb.make_ladder(4, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    f = vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2)))
    p = vb.constant_field(spec, 2.0)
    alpha = vb.constant_field(spec, 0.5, "alpha")
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    direct = vb.besov_norm(f, frame, alpha, p, q, "direct").value
    peetre = vb.besov_norm(f, frame, alpha, p, q, "peetre").value
    # the maximal function dominates |g| pointwise, so the norm can only grow
    assert np.isfinite(peetre) and direct <= peetre <= 3 * direct
