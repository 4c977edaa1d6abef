import dataclasses

import numpy as np
import pytest

import vbesov.checks as C
from vbesov.checks import CheckReport, Gate, run_checks
from vbesov.errors import ParameterError
from vbesov.exponents import make_exponent_field, q_field_from_callable
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
    r = CheckReport("probe", 7, [], {"bounded": 1.0, "unbounded": bad}, [])
    assert not r.passed
    assert r.violations == [Gate("finite:unbounded", bad, C.HUGE).to_dict()]
    assert r.violations[0]["margin"] < 0


def test_a_gate_passes_at_its_bound_and_fails_on_nan():
    assert Gate("le", 2.0, 2.0).passed and Gate("ge", 2.0, 2.0, ">=").passed
    assert Gate("le", 1.0, 4.0).margin == 0.75 and Gate("ge", 1.0, 4.0, ">=").margin == -0.75
    assert not Gate("le", np.nan, 1.0).passed and not Gate("ge", np.nan, 1.0, ">=").passed
    r = CheckReport("probe", 7, [], {}, [Gate("ok", 0.5, 1.0), Gate("off", 0.5, 1.0, ">=")])
    assert not r.passed and [v["name"] for v in r.violations] == ["off"]


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
    assert {v["name"] for v in r.violations} == {"const_pairwise_spread",
                                                 "variable_pairwise_spread"}
    assert all("q0" in m["worst"]["pair"] for m in r.details["matrices"].values())
    assert r.passed is False


# -- the gate table: every gate of every check, and a fault that fails it ------
# A row is (check, fault, the gates the fault must fail).  A fault takes the
# monkeypatch fixture and the bank, and returns the bank the check runs on.


def _patched(name, wrap):
    """The fault that replaces C.<name> by wrap(bank, the real one)."""
    def fault(monkeypatch, bank):
        monkeypatch.setattr(C, name, wrap(bank, getattr(C, name)))
        return bank
    return fault


def _exponent(key, make):
    """The fault that replaces the bank's exponent field `key` by make(bank)."""
    return lambda monkeypatch, bank: dataclasses.replace(
        bank, exponents={**bank.exponents, key: make(bank)})


def _weights(factor):
    """The fault that scales the ladder's dt/t weights."""
    def fault(monkeypatch, bank):
        lad = bank.ladder
        return dataclasses.replace(bank, ladder=ScaleLadder(
            lad.octaves, lad.nodes_per_octave, lad.t, factor * lad.weights))
    return fault


def _alpha_spikes_without_clog(monkeypatch, bank):
    # R = 0, and alpha raised by 0.5 on the samples that only the halved
    # stride reads: the R = 0 growth is measured without them
    real = C.log_holder_constants
    monkeypatch.setattr(C, "log_holder_constants", lambda *args: (0.0, *real(*args)[1:]))
    alpha = bank.exponents["alpha_signchange"]
    vals = alpha.samples.copy()
    vals[8::16] += 0.5
    spiked = make_exponent_field(vals, "alpha", alpha.limit_value, spec=bank.spec)
    return dataclasses.replace(bank, exponents={**bank.exponents, "alpha_signchange": spiked})


def _pair_order(src, dst):
    """The fault that builds the local-mean pair of order S = src at S = dst."""
    return _patched("build_local_mean_pair", lambda bank, real: lambda spec, ladder, S: real(
        spec, ladder, S=dst if S == src else S))


def _fj_atom_plus(bump):
    """The fault that adds bump(x - x_Q) times the atom's sup to the FJ atom."""
    def wrap(bank, real):
        def atom(spec, v, m, K, L):
            a = real(spec, v, m, K, L)
            x = spec.axis_coords() - 2.0 ** -v * (m + 0.5)
            return C.GridFunction(spec, a.samples + np.abs(a.samples).max() * bump(x))
        return atom
    return _patched("_fj_atom", wrap)


def _block_norm_times(factor, q_key):
    """The fault that scales `octave_block_norm` at the exponent q_key."""
    return _patched("octave_block_norm", lambda bank, real: lambda g, ladder, q: real(
        g, ladder, q) * (factor if q is bank.exponents[q_key] else 1.0))


def _q0_times(factor, p_key=None):
    """The fault that scales the q0 form of `besov_norm` at the exponent p_key
    (at every p if None)."""
    def wrap(bank, real):
        def norm(f, kernel, alpha, p, q, form, **kwargs):
            rep = real(f, kernel, alpha, p, q, form, **kwargs)
            if form != "q0" or p_key is not None and p is not bank.exponents[p_key]:
                return rep
            return dataclasses.replace(rep, value=factor * rep.value)
        return norm
    return _patched("besov_norm", wrap)


_ETA_UNNORMALIZED = _patched("eta_kernel", lambda bank, real: lambda spec, t, m: C.GridFunction(
    spec, real(spec, t, m).samples * t ** spec.dimension))

GATE_TABLE = [
    ("pointwise-shift", "alpha-constant",
     _exponent("alpha_signchange", lambda b: b.exponents["alpha_const05"]), {"R0_growth"}),
    ("pointwise-shift", "alpha-spikes-at-R0", _alpha_spikes_without_clog, {"refinement"}),
    ("subconvolution", "eta-unnormalized", _ETA_UNNORMALIZED, {"stability_r=1.0"}),
    ("eta-algebra", "eta-unnormalized", _ETA_UNNORMALIZED, {"mass_t_independence"}),
    ("hardy", "weights-x2", _weights(2.0),
     {"continuous_s=1.0_q_const2", "continuous_s=0.5_q_const2"}),
    ("hardy", "weights-x1.5", _weights(1.5), {"continuous_s=1.0_q_const2"}),
    ("key-modular", "tail-dropped", _patched("_worst_ratio", lambda bank, real: lambda *args: real(
        *args[:-1], np.zeros_like(args[-1]))), {"worst_constant"}),
    ("mixed-equivalence", "qconst-x1.001", _block_norm_times(1.001, "q_const2"),
     {"scalar_qconst_dev"}),
    ("mixed-equivalence", "qlog-x0.3", _block_norm_times(0.3, "q_logdecay"),
     {"scalar_qlog_ratio_min"}),
    ("mixed-equivalence", "qlog-x3", _block_norm_times(3.0, "q_logdecay"),
     {"scalar_qlog_ratio_max"}),
    # q(t) = 1.2 + 2.8 t is not log-decaying: the norm (log 2)^{1/q} of one
    # octave follows q across the ladder
    ("mixed-equivalence", "q-climbs", _exponent("q_logdecay", lambda b: q_field_from_callable(
        b.ladder.t, lambda t: 1.2 + 2.8 * t, 1.2)), {"single_level_spread"}),
    ("kernel-decay", "S-1-as-1", _pair_order(-1, 1), {"slope_M=-1"}),
    ("kernel-decay", "S1-as-1", _pair_order(1, -1), {"slope_M=1"}),
    ("kernel-decay", "S3-as-1", _pair_order(3, 1), {"slope_M=3"}),
    # a one-sample spike is rough; a unit Gaussian has a nonzero mean
    ("kernel-decay", "fj-spike", _fj_atom_plus(lambda x: np.abs(x) == np.abs(x).min()),
     {"fj_fine_scale"}),
    ("kernel-decay", "fj-mass", _fj_atom_plus(lambda x: 0.2 * np.exp(-x ** 2 / 2)),
     {"fj_coarse_scale"}),
    ("embeddings", "alpha-dropped", _patched("besov_norm", lambda bank, real: lambda f, frame,
     alpha, *args, **kwargs: real(f, frame, bank.exponents["alpha_const0"], *args, **kwargs)),
     {"identity"}),
    ("norm-equivalences", "q0-x20-const", _q0_times(20.0, "p_const2"), {"const_pairwise_spread"}),
    ("norm-equivalences", "q0-x20-variable", _q0_times(20.0, "p_sin"),
     {"variable_pairwise_spread"}),
    # a zero norm beside nonzero ones is an infinite spread
    ("norm-equivalences", "q0-zero", _q0_times(0.0),
     {"const_pairwise_spread", "variable_pairwise_spread",
      "finite:const_max_pairwise_spread", "finite:variable_max_pairwise_spread"}),
]


def _run_quick(check_id, bank):
    # one member keeps the norm-form matrix to a fraction of a second
    kwargs = {"members": ["gauss_w1"]} if check_id == "norm-equivalences" else {}
    return C.CHECKS[check_id](bank, **kwargs)


@pytest.mark.parametrize("check_id, fault, gates",
                         [pytest.param(c, f, g, id=f"{c}-{name}") for c, name, f, g in GATE_TABLE])
def test_each_fault_fails_exactly_the_gates_of_its_row(bank1k, monkeypatch, check_id, fault,
                                                       gates):
    r = _run_quick(check_id, fault(monkeypatch, bank1k))
    assert {v["name"] for v in r.violations} == gates, r.violations
    assert r.passed is False


@pytest.mark.parametrize("check_id", sorted(C.CHECKS))
def test_every_gate_has_a_row_and_passes_without_its_fault(bank1k, check_id):
    r = _run_quick(check_id, bank1k)
    assert r.passed, r.violations
    rows = set().union(*(g for c, _, _, g in GATE_TABLE if c == check_id))
    assert {g.name for g in r.gates if not g.name.startswith("finite:")} == {
        g for g in rows if not g.startswith("finite:")}
