"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured constants.  Every test here carries the `acceptance`
marker, so `pytest -m "not acceptance"` runs the rest of the suite alone.
"""

import json
import os
import time

import numpy as np
import pytest

import vbesov as vb
from vbesov.bank import make_bank
from vbesov.besov import besov_norm, lp_profile
from vbesov.checks import (LEMMA_CHECKS, check_key_modular,
                           check_mixed_equivalence, check_norm_equivalences,
                           run_checks)
from vbesov.cli import main as cli_main
from vbesov.frame import BumpParams
from vbesov.grid import spectrum
from vbesov.luxemburg import t_norm
from vbesov.reporting import strip_timestamp

pytestmark = pytest.mark.acceptance

DETERMINISTIC_MEMBERS = [
    "gauss_w05", "gauss_w1", "gauss_w2", "modgauss_f4", "modgauss_f16",
    "modgauss_f4_w05", "weier_s03", "weier_s05", "weier_s12",
    "smoothstep_w1", "smoothstep_w2", "smoothstep_shift",
    "tone_k8", "tone_k40", "dgauss", "gausspair",
]


def _report(criterion, passed, message=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if message:
        line += f"  [{message}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def bank(bank4k):
    return bank4k


@pytest.fixture(scope="module")
def frame(bank4k):
    return vb.build_resolution_of_unity(bank4k.spec, bank4k.ladder)


def _hs_norm(f, s):
    ft = spectrum(f)
    xi = f.spec.freq_radius()
    return float(np.sqrt(np.sum((1 + xi ** 2) ** s * np.abs(ft) ** 2)
                         / f.spec.box_length))


def test_criterion_1_luxemburg(bank):
    t0 = time.time()
    spec = bank.spec
    h = spec.spacing
    p = bank.exponents["p_sin"]
    pv = p.grid_values()

    # unit-ball equivalence at several scalings of every member
    for name in bank.names():
        f = bank[name]
        base = vb.luxemburg_norm(f, p).value
        for c in (0.5 / base, 0.999 / base, 1.001 / base, 2.0 / base):
            g = f.with_samples(c * f.samples)
            val = vb.luxemburg_norm(g, p).value
            rho = vb.modular(g, p)
            if val <= 1.0:
                assert rho <= 1.0 + 1e-9, (name, c, rho)
            if rho <= 1.0:
                assert val <= 1.0 + 1e-9, (name, c, val)

    # constant-exponent reduction on the whole bank
    for p0 in (1.5, 2.0, 3.0):
        pc = vb.constant_field(spec, p0)
        for name in bank.names():
            f = bank[name]
            direct = (np.sum(np.abs(f.samples) ** p0) * h) ** (1 / p0)
            got = vb.luxemburg_norm(f, pc).value
            assert abs(got - direct) <= 1e-9 * max(direct, 1e-30), (name, p0)

    # dense lambda-scan oracle on three members with variable p
    p_var = bank.exponents["p_sin2"]
    pvv = p_var.grid_values()
    for name in ("gauss_w1", "modgauss_f4", "bandnoise_a"):
        f = bank[name]
        r = vb.luxemburg_norm(f, p_var)
        lams = np.geomspace(r.value / 10, r.value * 10, 10_000)
        terms = np.abs(f.samples) ** pvv * h
        mods = np.array([np.sum(terms * lam ** (-pvv)) for lam in lams])
        idx = np.flatnonzero(np.diff(np.sign(mods - 1.0)))[0]
        assert lams[idx] <= r.value * (1 + 1e-8)
        assert r.value <= lams[idx + 1] * (1 + 1e-8)

    elapsed = time.time() - t0
    _report(1, elapsed <= 10.0, f"luxemburg bank checks in {elapsed:.1f}s")


def test_criterion_2_frame_identity(bank):
    t0 = time.time()
    residuals = {}
    for order in (6, 10):
        fr = vb.build_resolution_of_unity(bank.spec, bank.ladder, BumpParams(order))
        residuals[order] = fr.residual
        assert fr.residual <= 1e-6, (order, fr.residual)
    elapsed = time.time() - t0
    _report(2, elapsed <= 5.0,
            f"residuals {residuals[6]:.2e} / {residuals[10]:.2e} in {elapsed:.1f}s")


def test_criterion_3_sobolev_oracle(bank, frame):
    t0 = time.time()
    lad = bank.ladder
    q2 = bank.exponents["q_const2"]
    p2 = bank.exponents["p_const2"]
    a0 = bank.exponents["alpha_const0"]
    base = {n: lp_profile(bank[n], frame, a0, p2) for n in bank.names()}

    def direct_norm(prof, s):
        return prof.level0 + t_norm(prof.values * lad.t ** (-s), q2, lad, "variable")

    ratios = {}
    for s in (0.3, 0.5, 1.2):
        for n in bank.names():
            r = direct_norm(base[n], s) / _hs_norm(bank[n], s)
            assert 1 / 3 <= r <= 3, (n, s, r)
            ratios[(n, s)] = r

    # refinement: N and V doubled, deterministic members only
    spec2 = vb.make_grid(1, 16.0, 8192)
    lad2 = vb.make_ladder(16, 12)
    bank2 = make_bank(spec2, lad2, seed=bank.seed)
    frame2 = vb.build_resolution_of_unity(spec2, lad2)
    q2b = bank2.exponents["q_const2"]
    p2b = bank2.exponents["p_const2"]
    a0b = bank2.exponents["alpha_const0"]
    worst_drift = 0.0
    for n in DETERMINISTIC_MEMBERS:
        prof = lp_profile(bank2[n], frame2, a0b, p2b)
        for s in (0.3, 0.5, 1.2):
            val = prof.level0 + t_norm(prof.values * lad2.t ** (-s), q2b, lad2,
                                       "variable")
            r2 = val / _hs_norm(bank2[n], s)
            drift = abs(r2 / ratios[(n, s)] - 1.0)
            worst_drift = max(worst_drift, drift)
            assert drift <= 0.25, (n, s, ratios[(n, s)], r2)
    elapsed = time.time() - t0
    _report(3, elapsed <= 60.0,
            f"ratios in [1/3,3], refinement drift {worst_drift:.3f} in {elapsed:.1f}s")


def test_criterion_4_smoothness_slope(bank, frame):
    t0 = time.time()
    lad = bank.ladder
    p2 = bank.exponents["p_const2"]
    a0 = bank.exponents["alpha_const0"]
    slopes = {}
    for s, name in ((0.3, "weier_s03"), (0.5, "weier_s05"), (1.2, "weier_s12")):
        prof = lp_profile(bank[name], frame, a0, p2)
        pts = []
        for v in range(2, 8):
            sl = lad.octave_slice(v)
            pts.append((np.mean(np.log2(lad.t[sl])),
                        np.mean(np.log2(prof.values[sl]))))
        slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
        slopes[s] = slope
        assert abs(slope - s) <= 0.1, (name, slope)
    elapsed = time.time() - t0
    _report(4, elapsed <= 30.0,
            "slopes " + ", ".join(f"{s}->{v:.3f}" for s, v in slopes.items())
            + f" in {elapsed:.1f}s")


def test_criterion_5_equivalence_matrix():
    t0 = time.time()
    spec = vb.make_grid(1, 16.0, 2048)
    lad = vb.make_ladder(8, 12)
    bank2k = make_bank(spec, lad, seed=7)
    report = check_norm_equivalences(bank=bank2k)
    assert report.passed, report.violations[:5]
    spread = max(report.constants.values())
    assert spread <= 10.0

    # refinement stability on a deterministic subset at (N=4096, V=9)
    subset = ["gauss_w1", "modgauss_f16", "weier_s05"]
    spec4 = vb.make_grid(1, 16.0, 4096)
    lad4 = vb.make_ladder(9, 12)
    bank4 = make_bank(spec4, lad4, seed=7)
    refined = check_norm_equivalences(bank=bank4, members=subset,
                                      max_points=4096)
    assert refined.passed, refined.violations[:5]
    worst_drift = 0.0
    for label in ("const", "variable"):
        base_vals = report.details["matrices"][label]["values"]
        ref_vals = refined.details["matrices"][label]["values"]
        for n in subset:
            forms = sorted(base_vals[n])
            for i, fi in enumerate(forms):
                for fj in forms[i + 1:]:
                    rb = base_vals[n][fi] / base_vals[n][fj]
                    rr = ref_vals[n][fi] / ref_vals[n][fj]
                    drift = abs(rr / rb - 1.0)
                    worst_drift = max(worst_drift, drift)
                    assert drift <= 0.25, (label, n, fi, fj, rb, rr)
    elapsed = time.time() - t0
    _report(5, elapsed <= 600.0,
            f"max spread {spread:.2f}, refinement drift {worst_drift:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_6_atomic_round_trip(bank, frame):
    t0 = time.time()
    spec = bank.spec
    p2 = bank.exponents["p_const2"]
    a05 = bank.exponents["alpha_const05"]
    q2 = bank.exponents["q_const2"]

    worst_rec = 0.0
    for name in ("gauss_w1", "modgauss_f4", "tone_k8"):
        f = bank[name]
        dec = vb.analyze(f, frame, V=8, K=2, L=0, target_alpha=a05, keep_atoms=True)
        rec = vb.synthesize(dec)
        rel = (np.linalg.norm(rec.samples - f.samples)
               / np.linalg.norm(f.samples))
        worst_rec = max(worst_rec, rel)
        assert rel <= 0.05, (name, rel)

    ratios = []
    for name in bank.names():
        g = bank[name]
        decn = vb.analyze(g, frame, V=8, K=2, L=0, keep_atoms=False)
        bnorm = vb.sequence_norm_b(decn, a05, p2, q2, form="continuous")
        snorm = besov_norm(g, frame, a05, p2, q2, "direct").value
        r = bnorm / snorm
        ratios.append(r)
        assert 1 / 10 <= r <= 10, (name, r)

    # constructed atoms: derivative bounds at constant 1 and strict moments;
    # support leak measured and validated at the reported tolerance
    dec = vb.analyze(bank["gauss_w1"], frame, V=6, K=2, L=0, keep_atoms=True)
    checked, leaks = 0, []
    for key, lam in sorted(dec.coefficients.items(),
                           key=lambda kv: -kv[1])[:5]:
        d = dec.atoms[key]
        probe = vb.validate_atom(d.samples, d.v, d.m, 2, 0, 3.0)
        leak = probe.validation["support_fraction"]
        leaks.append(leak)
        assert leak < 0.9
        rep = vb.validate_atom(d.samples, d.v, d.m, 2, 0, 3.0,
                               derivative_constant=1.0,
                               support_tolerance=leak * 1.01 + 1e-12)
        assert rep.validation["pass_derivatives"]
        assert rep.validation["pass_moments"]
        assert rep.validation["pass"]
        checked += 1
    elapsed = time.time() - t0
    _report(6, elapsed <= 300.0,
            f"round trip <= {worst_rec:.2e}, b/B in [{min(ratios):.2f}, "
            f"{max(ratios):.2f}], atom support leaks {max(leaks):.2f} "
            f"(reported) in {elapsed:.0f}s")


def test_criterion_7_lemma_suite(bank):
    t0 = time.time()
    reports = run_checks(sorted(LEMMA_CHECKS), bank=bank, seed=7)
    for r in reports:
        assert r.passed, (r.check_id, r.constants, r.details)
        assert not r.violations

    by_id = {r.check_id: r for r in reports}
    # designed hypothesis violations degrade visibly
    assert by_id["pointwise-shift"].details["R0_growth_across_ladder"] > 10
    assert abs(by_id["kernel-decay"].details["slopes"]["M=-1"]) <= 0.2
    assert by_id["kernel-decay"].details["slopes"]["M=1"] >= 1.8

    # refinement stability for the sampled-maximum checks: doubled budgets
    km = by_id["key-modular"]
    km2 = check_key_modular(bank=bank, cubes_per_level=16, x_per_cube=48, pairs=80)
    for k, v in km.constants.items():
        drift = km2.constants[k] / v if v > 0 else 1.0
        assert 1 / 1.25 <= drift <= 1.25, (k, v, km2.constants[k])
    me = by_id["mixed-equivalence"]
    me2 = check_mixed_equivalence(bank=bank, draws=24)
    for k in ("masked_cube_ratio", "smoothing_delta=0.5", "smoothing_delta=1.0"):
        drift = me2.constants[k] / me.constants[k]
        assert 1 / 1.25 <= drift <= 1.25, (k, me.constants[k], me2.constants[k])

    elapsed = time.time() - t0
    _report(7, elapsed <= 900.0,
            f"{len(reports)} lemma checks pass in {elapsed:.0f}s")


def test_criterion_8_embeddings(bank):
    t0 = time.time()
    report = run_checks(["embeddings"], bank=bank, seed=7)[0]
    assert report.passed, report.constants
    c_sob = report.constants["sobolev_line_p2_to_p4"]
    assert np.isfinite(c_sob)
    elapsed = time.time() - t0
    _report(8, elapsed <= 180.0,
            f"three embeddings pass; sobolev p0=2->p1=4 constant "
            f"{c_sob:.3f} in {elapsed:.0f}s")


DETERMINISM_CONFIG = """
points = 1024
octaves = 6
nodes_per_octave = 12
seed = 7
"""


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cli_main(["verify", "--config", str(cfg_path), "--seed", "7",
              "--out", out_a, "--check", "all"])
    cli_main(["verify", "--config", str(cfg_path), "--seed", "7",
              "--out", out_b, "--check", "all"])
    files_a = sorted(f for f in os.listdir(out_a) if f.endswith(".json"))
    files_b = sorted(f for f in os.listdir(out_b) if f.endswith(".json"))
    assert files_a == files_b and files_a
    for name in files_a:
        bytes_a = strip_timestamp(os.path.join(out_a, name))
        bytes_b = strip_timestamp(os.path.join(out_b, name))
        assert bytes_a == bytes_b, f"{name} differs between runs"
    _report(9, True, f"{len(files_a)} check documents byte-identical")
