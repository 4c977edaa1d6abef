import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from vbesov.errors import AdmissibilityError, ParameterError
from vbesov.cli import main
from vbesov.exponents import log_holder_constants, reciprocal_constants


def _constants(fld):
    """(clog_local, clog_decay, witness) of the field itself."""
    return log_holder_constants(fld, fld.samples, fld.limit_value)


def test_constant_field(spec1k):
    p = vb.constant_field(spec1k, 2.0)
    assert p.cached_min == p.cached_max == 2.0
    assert _constants(p)[:2] == (0.0, 0.0)


def test_constant_fields_skip_the_pair_scan(spec1k, ladder):
    spec2 = vb.make_grid(2, 16.0, 32)
    fields = [vb.constant_field(spec1k, 2.0), vb.constant_field(spec1k, 0.5, "alpha"),
              vb.constant_field(spec2, 3.0),
              vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)]
    for fld in fields:
        clog_local, _, witness = _constants(fld)
        assert clog_local == 0.0
        assert witness == (0, 0)


@pytest.mark.parametrize("N, fn", [
    (64, lambda u: 2.0 + (u > 0)),   # a jump
    (64, lambda u: 2.0 + np.sin(u)),
    (32, lambda u: 2.0 + (u > 0)),
    (32, lambda u: 2.0 + np.sin(u)),
])
def test_2d_log_holder_axis_symmetric(N, fn):
    spec = vb.make_grid(2, 16.0, N)
    across_x = vb.field_from_callable(spec, lambda x, y: fn(x), "p", None)
    across_y = vb.field_from_callable(spec, lambda x, y: fn(y), "p", None)
    assert _constants(across_x)[0] > 0
    assert _constants(across_x)[0] == _constants(across_y)[0]
    assert reciprocal_constants(across_x)[0] == reciprocal_constants(across_y)[0]


def test_sin_extrema(spec1k):
    L = spec1k.box_length
    p = vb.field_from_callable(spec1k, lambda x: 3 + np.sin(2 * np.pi * x / L), "p", 3.0)
    assert p.cached_min == pytest.approx(2.0, abs=1e-9)
    assert p.cached_max == pytest.approx(4.0, abs=1e-9)


def test_admissibility(spec1k):
    with pytest.raises(AdmissibilityError):
        vb.constant_field(spec1k, 0.5)
    vals = np.full(spec1k.size, 2.0)
    vals[3] = np.nan
    with pytest.raises(ParameterError):
        vb.make_exponent_field(vals, "p", spec=spec1k)


def test_two_sample_pair_constant():
    # closed form: two samples at distance 1 -> clog = log(e + 1)
    spec = vb.make_grid(1, 16.0, 16)
    x = spec.axis_coords()
    vals = 1.0 + (x >= x[8] + 0.5).astype(float)  # step of height 1
    # isolate the lone pair at distance 1 by constructing it directly
    from vbesov.exponents import _pair_constant
    c, _ = _pair_constant(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert c == pytest.approx(math.log(math.e + 1.0), abs=1e-12)


def test_origin_decay_field_reads_back_constant():
    # g(x) = c / log(e + 1/|x|) with g(0) = 0: the generating constant
    spec = vb.make_grid(1, 1.0, 4096)
    c = 0.8

    def g(x):
        ax = np.abs(x)
        return np.where(ax == 0, 0.0, c / np.log(np.e + 1.0 / np.where(ax == 0, 1.0, ax)))

    fld = vb.field_from_callable(spec, lambda x: 2.0 + g(x), "alpha", 2.0)
    assert abs(_constants(fld)[0] - c) / c < 0.10


def test_jump_field_constant_grows_like_log_h(spec4k):
    h = spec4k.spacing
    vals = np.where(spec4k.axis_coords() < 0, 2.0, 3.0)
    fld = vb.make_exponent_field(vals, "p", 2.5, spec=spec4k)
    assert _constants(fld)[0] == pytest.approx(math.log(math.e + 1.0 / h), rel=1e-12)
    rep = vb.check_class(fld)
    i, j = rep.witnesses["worst_pair_indices"]
    assert abs(i - j) == 1  # the witness is the adjacent pair at the jump


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_scaling_scales_constants_exactly(lam):
    spec = vb.make_grid(1, 8.0, 64)
    base = vb.field_from_callable(spec, lambda x: np.sin(x) + 0.2 * x, "alpha", 0.0)
    scaled = vb.make_exponent_field(lam * base.samples, "alpha", 0.0, spec=spec)
    (base_local, base_decay, _), (local, decay, _) = _constants(base), _constants(scaled)
    assert local == pytest.approx(lam * base_local, rel=1e-12)
    assert decay == pytest.approx(lam * base_decay, rel=1e-12)


def test_check_class_constant_all_true(spec1k):
    rep = vb.check_class(vb.constant_field(spec1k, 2.0))
    assert rep.is_Plog and rep.is_log_holder_at_origin
    assert rep.witnesses["clog_local"] == 0.0


def test_q_field_origin_class(ladder):
    q = vb.q_field_from_callable(
        ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)
    rep = vb.check_class(q)
    assert rep.is_log_holder_at_origin
    # |q(t) - q(0)| log(e + 1/t) = 1 identically for the generating formula
    assert _constants(q)[1] == pytest.approx(1.0, abs=1e-9)


def test_q_field_requires_limit(ladder):
    with pytest.raises(ParameterError):
        vb.make_exponent_field(np.full(ladder.t.size, 2.0), "q_of_t",
                               t_coords=ladder.t)


@pytest.mark.parametrize("q0", [np.nan, np.inf])
def test_q_field_rejects_a_non_finite_limit(ladder, q0):
    with pytest.raises(ParameterError, match="limit_value must be finite"):
        vb.make_exponent_field(np.full(ladder.t.size, 2.0), "q_of_t", q0,
                               t_coords=ladder.t)


def test_q_value_interpolation(ladder):
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + t, 2.0)
    assert q.value_at(float(ladder.t[5])) == pytest.approx(2.0 + ladder.t[5], abs=1e-12)


def test_reciprocal_constants_positive(spec1k):
    p = vb.field_from_callable(
        spec1k, lambda x: 3 + np.sin(2 * np.pi * x / 16), "p", 3.0)
    cl, cd = reciprocal_constants(p)
    assert cl > 0 and cd is not None and cd > 0
    inv = vb.make_exponent_field(1.0 / p.samples, "alpha", 1.0 / 3.0, spec=spec1k)
    assert (cl, cd) == _constants(inv)[:2]  # the field constants of 1/p


# the "variable" exponents of the benchmark workloads, on a small grid
VARIABLE_EXPONENTS = """
p = 3 + sin(2 * pi * x / 16)
alpha = 3 / 10 + 3 / 5 * sin(2 * pi * x / 16)
q = 2 + 1 / log(e + 1 / t)
points = 256
octaves = 4
member = gauss_w05
"""


def test_requests_never_run_the_pair_scan(tmp_path, monkeypatch):
    import vbesov.exponents as exponents_mod

    def no_pair_scan(*args, **kwargs):
        raise AssertionError("a request estimated a log-Holder constant")

    monkeypatch.setattr(exponents_mod, "_pair_constant", no_pair_scan)
    cfg = tmp_path / "variable.cfg"
    cfg.write_text(VARIABLE_EXPONENTS)
    out = str(tmp_path / "out")
    for form in ("direct", "local_mean_double_prime"):
        assert main(["norm", "--config", str(cfg), "--out", out, "--form", form]) == 0
    assert main(["decompose", "--config", str(cfg), "--out", out]) == 0
