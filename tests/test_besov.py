import numpy as np
import pytest

import vbesov as vb
from vbesov.besov import peetre_maximal
from vbesov.errors import HypothesisViolationError, ParameterError


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
    pair = vb.build_local_mean_pair(spec, S=2)
    for variant in ("prime", "double_prime"):
        rep = vb.local_mean_norm(zero, pair, F["a05"], F["p2"], F["qlog"],
                                 2.0, variant, ladder)
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


def test_scaling_all_forms(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    g = f.with_samples(17.0 * f.samples)
    for form in ("direct", "discretized", "q0"):
        a = vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], form).value
        b = vb.besov_norm(g, frame, F["a05"], F["p2"], F["qlog"], form).value
        assert b == pytest.approx(17.0 * a, rel=1e-8)


def test_peetre_domination(setup2k):
    spec, ladder, frame, F = setup2k
    f = vb.from_callable(spec, lambda x: np.sin(3 * x) * np.exp(-x ** 2 / 3))
    t = float(ladder.t[10])
    band = frame.band_transform(f, t)
    g = band.abs_samples()
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
    pair = vb.build_local_mean_pair(spec, S=1)
    alpha_high = vb.constant_field(spec, 2.5, "alpha")
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    with pytest.raises(HypothesisViolationError):
        vb.local_mean_norm(f, pair, alpha_high, F["p2"], F["q2"], 2.0,
                           "double_prime", ladder)


def test_local_mean_vs_direct(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, S=1)
    f = vb.from_callable(spec, lambda x: np.cos(6 * x) * np.exp(-x ** 2 / 2))
    direct = vb.besov_norm(f, frame, F["a05"], F["p2"], F["q2"], "direct").value
    double = vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["q2"], 2.0,
                                "double_prime", ladder).value
    ratio = double / direct
    assert 1 / 10 <= ratio <= 10


def test_form_chain_small(setup2k):
    spec, ladder, frame, F = setup2k
    pair = vb.build_local_mean_pair(spec, S=2)
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    vals = [
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "direct").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "q0").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "discretized").value,
        vb.besov_norm(f, frame, F["a05"], F["p2"], F["qlog"], "peetre", a=2.0).value,
        vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["qlog"], 2.0,
                           "prime", ladder).value,
        vb.local_mean_norm(f, pair, F["a05"], F["p2"], F["qlog"], 2.0,
                           "double_prime", ladder).value,
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


def test_profile_csv(tmp_path, setup2k):
    spec, ladder, frame, F = setup2k
    from vbesov.besov import write_profile_csv
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    prof = vb.lp_profile(f, frame, F["a0"], F["p2"])
    path = str(tmp_path / "profile.csv")
    write_profile_csv(prof, path)
    rows = open(path).read().strip().splitlines()
    assert rows[0] == "t,value"
    assert rows[1].startswith("level0,")
    assert len(rows) == 2 + ladder.t.size


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
