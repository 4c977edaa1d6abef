import dataclasses

import numpy as np
import pytest

import vbesov.checks as C
from vbesov.checks import CheckReport, run_checks
from vbesov.errors import ParameterError
from vbesov.luxemburg import ScaleLadder


@pytest.fixture(scope="module")
def bank(bank4k):
    return bank4k


LEMMA_IDS = sorted(C.LEMMA_CHECKS)


@pytest.mark.parametrize("check_id", LEMMA_IDS)
def test_lemma_checks_pass(bank, check_id):
    report = C.CHECKS[check_id](bank=bank)
    assert isinstance(report, CheckReport)
    assert report.passed, (report.constants, report.details)
    assert not report.violations
    for v in report.constants.values():
        assert np.isfinite(v)


def test_pointwise_shift_divergence_without_hypothesis(bank):
    r = C.check_pointwise_shift(bank=bank)
    assert r.details["R0_growth_across_ladder"] > 10


def test_kernel_decay_no_gain_without_moments(bank):
    r = C.check_kernel_decay(bank=bank)
    assert abs(r.details["slopes"]["M=-1"]) <= 0.2
    assert r.details["slopes"]["M=1"] >= 1.8


def test_hardy_gate_trips_when_the_ladder_weights_are_doubled(bank):
    # doubled dt/t weights double both averaging operators past 1/s
    lad = bank.ladder
    doubled = ScaleLadder(lad.octaves, lad.nodes_per_octave, lad.t, 2 * lad.weights)
    r = C.check_hardy(bank=dataclasses.replace(bank, ladder=doubled))
    for s in (1.0, 0.5):
        assert r.constants[f"continuous_s={s}_q_const2"] > 2.0 / s
    assert r.passed is False


def test_key_modular_gate_trips_when_the_tail_term_is_dropped(bank, monkeypatch):
    real = C._worst_ratio
    monkeypatch.setattr(C, "_worst_ratio",
                        lambda *args: real(*args[:-1], np.zeros_like(args[-1])))
    r = C.check_key_modular(bank=bank)
    assert r.constants["interval_pinf_below"] > 1.0
    assert r.passed is False


def test_reports_deterministic(bank):
    a = C.check_hardy(bank=bank, seed=123).to_dict()
    b = C.check_hardy(bank=bank, seed=123).to_dict()
    assert a == b


def test_run_checks_rejects_unknown(bank):
    with pytest.raises(ParameterError):
        run_checks(["no-such-check"], bank=bank)


def test_run_checks_subset_sorted(bank):
    reports = run_checks(["hardy", "eta-algebra"], bank=bank)
    assert [r.check_id for r in reports] == ["eta-algebra", "hardy"]


def test_run_checks_times_each_call_outside_the_document(bank):
    reports = run_checks(["hardy", "eta-algebra"], bank)
    for r in reports:
        assert r.runtime_s > 0
        assert "runtime_s" not in r.to_dict()


@pytest.mark.parametrize("bad", [np.inf, 2 * C.HUGE])
def test_unbounded_constant_fails_the_report(bad):
    r = CheckReport("probe", 7, [], {"bounded": 1.0, "unbounded": bad}, [], True)
    assert not r.passed
    assert r.violations == [{"config": "unbounded", "constant": bad}]


def test_embeddings_pass(bank):
    r = C.check_embeddings(bank=bank)
    assert r.passed, r.constants
    assert np.isfinite(r.constants["sobolev_line_p2_to_p4"])


def test_embeddings_identity_gate_trips_when_alpha_is_dropped(bank, monkeypatch):
    real = C.besov_norm
    alpha0 = bank.exponents["alpha_const0"]

    def without_alpha(f, frame, alpha, *args, **kwargs):
        return real(f, frame, alpha0, *args, **kwargs)

    monkeypatch.setattr(C, "besov_norm", without_alpha)
    r = C.check_embeddings(bank=bank)
    assert abs(r.constants["identity_embedding"] - 1.0) > 1e-9
    assert not r.passed


def test_mixed_equivalence_const_gate_trips_when_the_log2_factor_is_off(bank, monkeypatch):
    # with q constant 2 the octave-block norm is (log 2)^{1/2} |a|_2 exactly
    real = C.octave_block_norm
    qc = bank.exponents["q_const2"]

    def off_for_const_q(g, ladder, q):
        return real(g, ladder, q) * (1.001 if q is qc else 1.0)

    monkeypatch.setattr(C, "octave_block_norm", off_for_const_q)
    r = C.check_mixed_equivalence(bank=bank)
    assert r.constants["scalar_qconst_normalized_dev"] > 1e-9
    assert r.constants["single_level_spread"] <= 1.10
    assert not r.passed


def test_kernel_decay_slope_gate_trips_when_the_moments_are_dropped(bank, monkeypatch):
    real = C.build_local_mean_pair
    monkeypatch.setattr(C, "build_local_mean_pair",
                        lambda spec, ladder, S: real(spec, ladder, S=-1))
    r = C.check_kernel_decay(bank=bank)
    assert r.details["slopes"]["M=1"] < 1.8 and r.details["slopes"]["M=3"] < 3.8
    assert not r.passed


def test_eta_algebra_mass_gate_trips_when_the_scale_normalization_is_dropped(bank, monkeypatch):
    real = C.eta_kernel
    monkeypatch.setattr(C, "eta_kernel", lambda spec, t, m: C.GridFunction(
        spec, real(spec, t, m).samples * t ** spec.dimension))
    r = C.check_eta_algebra(bank=bank)
    assert r.details["mass_t_independence_rel"] >= 1e-2
    assert not r.passed


def test_pointwise_shift_growth_gate_trips_when_alpha_is_constant(bank):
    # at constant alpha the R = 0 ratio is 1 at every t: nothing grows
    const = dataclasses.replace(bank, exponents={
        **bank.exponents, "alpha_signchange": bank.exponents["alpha_const05"]})
    r = C.check_pointwise_shift(bank=const)
    assert r.details["R0_growth_across_ladder"] <= 10
    assert r.passed is False


def test_subconvolution_stability_gate_trips_when_the_scale_normalization_is_dropped(
        bank, monkeypatch):
    real = C.eta_kernel
    monkeypatch.setattr(C, "eta_kernel", lambda spec, t, m: C.GridFunction(
        spec, real(spec, t, m).samples * t ** spec.dimension))
    r = C.check_subconvolution(bank=bank)
    assert r.details["stability_across_N"]["r=1.0"] > 2.0
    assert r.passed is False


def test_norm_equivalences_window_gate_trips_when_one_form_is_off(bank, monkeypatch):
    real = C.besov_norm

    def q0_off(f, kernel, alpha, p, q, form, **kwargs):
        rep = real(f, kernel, alpha, p, q, form, **kwargs)
        return dataclasses.replace(rep, value=20.0 * rep.value) if form == "q0" else rep

    monkeypatch.setattr(C, "besov_norm", q0_off)
    r = C.check_norm_equivalences(bank=bank, members=["gauss_w1"])
    assert r.violations and all("q0" in v["pair"] for v in r.violations)
    assert r.passed is False
