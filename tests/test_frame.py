import contextlib
import dataclasses
import io
import os
import shutil

import numpy as np
import pytest

import vbesov as vb
import vbesov.frame as frame_mod
from oracles import (identity_residual_full_grid, identity_residual_per_node,
                     pairing_residual_per_node)
from vbesov.cli import main
from vbesov.errors import ConstructionError, ParameterError
from vbesov.frame import (KERNEL_CACHE_SIZE, PAIRING_TOL, BumpParams, build_radial_profile,
                          residuals)
from vbesov.grid import from_spectrum, mirror, spectrum
from vbesov.reporting import strip_timestamp


@pytest.fixture(scope="module")
def frame4k(spec4k, ladder):
    return vb.build_resolution_of_unity(spec4k, ladder)


def test_residual_two_profiles(spec4k, ladder):
    for order in (6, 10):
        fr = vb.build_resolution_of_unity(spec4k, ladder, BumpParams(order))
        assert fr.residual <= 1e-6


def test_residual_fails_on_sparse_ladder(spec4k):
    with pytest.raises(ConstructionError):
        vb.build_resolution_of_unity(spec4k, vb.make_ladder(8, 3))


def test_FPhi_values(frame4k):
    prof = frame4k.profile
    assert prof.Phi_hat(np.array([0.0]))[0] == 1.0
    assert prof.Phi_hat(np.array([0.4]))[0] == 1.0
    for s in (2.0, 5.0, 100.0):
        assert prof.Phi_hat(np.array([s]))[0] == 0.0
        assert prof.phi_hat(np.array([s]))[0] == 0.0
    assert prof.phi_hat(np.array([0.5]))[0] == 0.0
    assert prof.phi_hat(np.array([1.0]))[0] > 0


def test_phi_t_annulus_support(frame4k, spec4k):
    t = 0.25
    s = frame4k.phi_t_spectrum(t)
    fr = spec4k.freq_radius()
    outside = (fr <= 1 / (2 * t) - 1e-9) | (fr >= 2 / t + 1e-9)
    assert np.max(np.abs(s[outside])) == 0.0


def test_phi_t_zero_mean(frame4k, spec4k):
    for t in (1.0, 0.1, 0.01):
        phi = vb.synthesize_phi_t(frame4k, t)
        assert abs(vb.integrate(phi)) < 1e-12


def test_phi_t_mass_change_of_variables(frame4k, spec4k):
    # exact change of variables makes |phi_t|_1 t-independent; discretely the
    # small scales agree to ~1e-3 (|.|-kink Riemann error) while t = 1 carries
    # the box-truncation defect of any annulus-supported spectrum (reported).
    masses = {}
    for t in (1.0, 0.25, 0.0625):
        phi = vb.synthesize_phi_t(frame4k, t)
        masses[t] = vb.integrate(vb.GridFunction(spec4k, np.abs(phi.samples)))
    assert abs(masses[0.25] - masses[0.0625]) / masses[0.0625] < 2e-3
    assert abs(masses[1.0] - masses[0.0625]) / masses[0.0625] < 0.5


def test_phi_t_range_check(frame4k):
    with pytest.raises(ParameterError):
        vb.synthesize_phi_t(frame4k, 1.5)
    with pytest.raises(ParameterError):
        vb.synthesize_phi_t(frame4k, 0.0)


def test_reproduction_on_band_limited(frame4k, spec4k):
    # Phi*f + sum_k w_k phi_{t_k}*f must reproduce f on the resolved band
    f = vb.from_callable(spec4k, lambda x: np.cos(20 * x) * np.exp(-x ** 2 / 2))
    acc = frame4k.level0_transform(f).samples.copy()
    for t, w in zip(frame4k.ladder.t, frame4k.ladder.weights):
        acc += w * from_spectrum(spec4k, frame4k.phi_t_spectrum(t) * spectrum(f)).samples
    rel = np.max(np.abs(acc - f.samples)) / np.max(np.abs(f.samples))
    assert rel < 1e-6


def test_analysis_pair_identity(frame4k):
    # FPsi FPhi + int Fpsi(t.) Fphi(t.) dt/t = 1 (ladder-quadratured)
    prof = frame4k.profile
    s = np.geomspace(1e-3, frame4k.resolved_xi_max, 2000)
    total = prof.Psi_hat(s) * prof.Phi_hat(s)
    for t, w in zip(frame4k.ladder.t, frame4k.ladder.weights):
        total = total + w * prof.psi_hat(t * s) * prof.phi_hat(t * s)
    assert np.max(np.abs(total - 1.0)) < 1e-4


def test_local_mean_pair_gaussian_case(spec4k, ladder):
    pair = vb.build_local_mean_pair(spec4k, ladder, S=-1)
    assert pair.m == 0
    assert np.array_equal(pair.multipliers([1.0])[0], pair.level0)


def test_local_mean_pair_moments(spec4k, ladder):
    pair = vb.build_local_mean_pair(spec4k, ladder, S=1)
    assert pair.m == 1
    moments = pair.certification["moments_k"]
    assert abs(moments["0"]) < 1e-10
    assert abs(moments["1"]) < 1e-10
    assert abs(moments["2"]) > 1e-4  # first non-vanishing moment


def test_local_mean_tauberian(spec4k, ladder):
    pair = vb.build_local_mean_pair(spec4k, ladder, S=1, epsilon=1.0)
    assert pair.certification["tauberian_k0_min"] > 0
    assert pair.certification["tauberian_k_min"] > 0
    s = np.linspace(0.5, 2.0, 64)
    assert np.all(pair.k_spectrum_at(s) > 0)


def test_local_mean_epsilon_guard(spec4k, ladder):
    with pytest.raises(ParameterError, match="incompatible with grid Nyquist"):
        vb.build_local_mean_pair(spec4k, ladder, S=1, epsilon=1e6)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1.0, 0.0])
def test_local_mean_epsilon_must_be_positive_and_finite(spec4k, ladder, epsilon):
    with pytest.raises(ParameterError,
                       match=f"epsilon must be a positive finite number, got {epsilon}"):
        vb.build_local_mean_pair(spec4k, ladder, S=1, epsilon=epsilon)


def test_eta_kernel_mass(spec4k):
    m = 4.0
    eta = vb.eta_kernel(spec4k, 1.0, m)
    mass = vb.integrate(vb.GridFunction(spec4k, np.abs(eta.samples)))
    assert abs(mass - 2.0 / (m - 1.0)) < 2e-3  # box truncation at |x| = 8

    big = vb.make_grid(1, 64.0, 16384)
    mass_big = vb.integrate(vb.GridFunction(big, np.abs(vb.eta_kernel(big, 1.0, m).samples)))
    assert abs(mass_big - 2.0 / (m - 1.0)) < 2e-5


def test_eta_kernel_t_independence(spec4k):
    # resolved scales agree to 1e-2; smaller t carries (h/t)^2 Riemann error
    m = 4.0
    masses = [vb.integrate(vb.GridFunction(spec4k, np.abs(vb.eta_kernel(spec4k, t, m).samples)))
              for t in (1.0, 1.0 / 16.0)]
    assert abs(masses[0] - masses[1]) / masses[0] < 1e-2


def test_eta_kernel_peak(spec4k):
    eta = vb.eta_kernel(spec4k, 0.25, 4.0)
    i0 = spec4k.points_per_axis // 2  # x = 0
    assert eta.samples[i0].real == pytest.approx(0.25 ** -1, rel=1e-12)


def test_eta_kernel_guards(spec4k):
    with pytest.raises(ParameterError):
        vb.eta_kernel(spec4k, 1.0, 1.0)  # m <= n
    with pytest.raises(ParameterError):
        vb.eta_kernel(spec4k, -1.0, 4.0)


def test_local_mean_pair_2d_below_the_resolution_floor_names_the_grid(ladder):
    # 2-D with S >= 1 needs N >= 64: the spectrum cut at Nyquist and the
    # periodic wrap of k cannot both be made small at N = 32
    with pytest.raises(ConstructionError, match=r"2-D grid, N = 32, L = 16, epsilon = 1"):
        vb.build_local_mean_pair(vb.make_grid(2, 16.0, 32), ladder, S=1)
    assert vb.build_local_mean_pair(vb.make_grid(2, 16.0, 64), ladder, S=1).m == 1


@pytest.mark.parametrize("dimension, L, N", [(1, 16.0, 16), (1, 16.0, 2048), (1, 16.0, 4096),
                                             (1, 10.0, 1024), (2, 16.0, 32), (2, 16.0, 64)])
def test_phi_t_spectrum_on_the_annulus_equals_the_full_grid_bit_for_bit(dimension, L, N, ladder):
    spec = vb.make_grid(dimension, L, N)
    frame = vb.build_resolution_of_unity(spec, ladder)
    sr = spec.freq_radius()
    for t in (1.0, *ladder.t):
        assert np.array_equal(frame.phi_t_spectrum(t), frame.profile.phi_hat(t * sr))
    assert np.array_equal(mirror(spec, frame.level0), frame.profile.Phi_hat(sr))


@pytest.mark.parametrize("dimension, N", [(1, 2048), (1, 4096), (2, 64), (2, 128)])
def test_half_grid_multipliers_mirror_to_the_full_evaluation_bit_for_bit(dimension, N, ladder):
    # both kernels evaluate on the half grid only; the full layout that the
    # atoms, synthesize_Phi and kernel-decay read is the mirror, and must
    # keep every bit of the evaluation at every full-grid frequency
    spec = vb.make_grid(dimension, 16.0, N)
    sr, hr = spec.freq_radius(), spec.half_freq_radius()
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=2 if dimension == 1 else 1)
    assert frame.level0.shape == frame.level0_analysis.shape == pair.level0.shape == hr.shape
    assert np.array_equal(pair.radius, hr)
    assert np.array_equal(frame.radius, hr)
    for v in range(1, ladder.octaves + 1):
        ts = ladder.t[ladder.octave_slice(v)]
        for kern, at in ((frame, frame.profile.phi_hat), (pair, pair.k_spectrum_at)):
            block = kern.multipliers(ts)
            assert block.shape == (ts.size,) + spec.half_shape
            assert np.array_equal(kern.blocks[v - 1], block), v
            assert np.array_equal(block, np.stack([at(t * hr) for t in ts])), v
            assert np.array_equal(mirror(spec, block), np.stack([at(t * sr) for t in ts])), v
    for half, at in ((frame.level0, frame.profile.Phi_hat),
                     (frame.level0_analysis, frame.profile.Psi_hat),
                     (pair.level0, pair.k0_spectrum_at)):
        assert np.array_equal(mirror(spec, half), at(sr))


@pytest.mark.parametrize("octaves, nodes, xi_max", [(8, 12, 115.2), (4, 12, 7.2), (6, 5, 28.8)])
def test_identity_residual_equals_the_full_grid_loop(octaves, nodes, xi_max):
    # one phi_hat call per octave, terms added node after node: the same
    # bits as the per-node loop on the annulus slices and on the full grid
    profile = build_radial_profile(BumpParams())
    ladder = vb.make_ladder(octaves, nodes)
    res = residuals(profile, ladder, xi_max)[0]
    assert res == identity_residual_per_node(profile, ladder, xi_max)
    assert res == identity_residual_full_grid(profile, ladder, xi_max)


@pytest.mark.parametrize("order", range(2, 10))
def test_phi_hat_is_the_bump_polynomial_in_log2_radius(order):
    from numpy.polynomial import polynomial as npoly

    profile = build_radial_profile(BumpParams(order))
    rng = np.random.default_rng(order)
    z = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 20000)])
    s = 2.0 ** z
    zs = np.log2(s)
    inside = np.abs(zs) < 1.0
    assert np.array_equal(profile.phi_hat(s)[inside],
                          npoly.polyval(zs[inside], profile.coef) / profile.c_b)


@pytest.mark.parametrize("octaves, nodes, xi_max, order",
                         [(8, 12, 115.2, 6), (4, 12, 7.2, 6), (6, 5, 28.8, 6), (8, 12, 115.2, 10)])
def test_pairing_residual_equals_the_per_node_loop(octaves, nodes, xi_max, order):
    profile = build_radial_profile(BumpParams(order))
    ladder = vb.make_ladder(octaves, nodes)
    assert (residuals(profile, ladder, xi_max)[1]
            == pairing_residual_per_node(profile, ladder, xi_max))


@pytest.mark.parametrize("order, measured", [(6, 2.580e-9), (10, 1.127e-9)])
def test_pairing_residual_is_certified_on_the_frame(order, measured):
    # the same figure on every grid and ladder length: a function of the
    # bump order, the ladder density and the band
    for N, octaves in ((1024, 6), (2048, 7), (4096, 8)):
        fr = vb.build_resolution_of_unity(vb.make_grid(1, 16.0, N), vb.make_ladder(octaves, 12),
                                          BumpParams(order))
        assert fr.pairing_residual == pytest.approx(measured, rel=1e-3), (N, octaves)
        assert fr.pairing_residual <= PAIRING_TOL


def test_a_wrong_c2_fails_the_pairing_certification(spec1k, monkeypatch):
    # c2 enters only the analysis kernels: the synthesis identity still
    # passes, and the pairing check alone must reject the frame
    ladder = vb.make_ladder(6, 12)
    right = build_radial_profile(BumpParams())
    wrong = dataclasses.replace(right, c2=right.c2 * 1.001)
    xi_max = 0.9 * min(spec1k.nyquist, 2.0 ** (ladder.octaves - 1))
    res_wrong, pairing_wrong = residuals(wrong, ladder, xi_max)
    assert res_wrong == residuals(right, ladder, xi_max)[0]
    assert pairing_wrong > 1e-4
    monkeypatch.setattr(frame_mod, "build_radial_profile", lambda params: wrong)
    frame_mod._kernel.cache_clear()
    with pytest.raises(ConstructionError,
                       match=r"frame pairing residual .* on the resolved band \|xi\| <= 28.8"):
        vb.build_resolution_of_unity(spec1k, ladder)


# -- the per-process kernel cache ------------------------------------------------


def test_equal_ladders_compare_and_hash_equal():
    a, b = vb.make_ladder(8, 12), vb.make_ladder(8, 12)
    assert a == b and hash(a) == hash(b)
    weights = a.weights.copy()
    weights[5] *= 1 + 1e-15
    changed = vb.ScaleLadder(a.octaves, a.nodes_per_octave, a.t, weights)
    assert changed != a
    assert vb.make_ladder(8, 12) != vb.make_ladder(7, 12) != vb.make_ladder(7, 11)
    assert len({a, b, changed}) == 2


def test_kernels_compare_by_identity(spec1k, ladder):
    frame = vb.build_resolution_of_unity(spec1k, ladder)
    assert frame == vb.build_resolution_of_unity(spec1k, ladder)
    assert frame != vb.build_resolution_of_unity(spec1k, ladder, BumpParams(10))
    pair = vb.build_local_mean_pair(spec1k, ladder, S=2)
    assert pair == vb.build_local_mean_pair(spec1k, ladder, 2, 1)
    assert frame != pair


ROUND_CONFIG = """
points = 2048
octaves = 7
p = 3 + sin(2 * pi * x / 16)
alpha = 3 / 10 + 3 / 5 * sin(2 * pi * x / 16)
q = 2 + 1 / log(e + 1 / t)
"""
ROUND = (["norm", "--form", "direct"], ["norm", "--form", "local_mean_double_prime"],
         ["decompose"], ["synthesize"])


def _round(tmp_path, member: str) -> dict:
    """Every output byte of ROUND on `member`, the timestamps emptied, and
    what each request printed; the output directory is emptied after."""
    cfg = tmp_path / f"{member}.cfg"
    cfg.write_text(ROUND_CONFIG + f"member = {member}\n")
    out = str(tmp_path / "out")
    printed = io.StringIO()
    for argv in ROUND:
        with contextlib.redirect_stdout(printed):
            assert main(argv + ["--config", str(cfg), "--out", out, "--seed", "7"]) == 0
    files = {f: strip_timestamp(os.path.join(out, f)) for f in sorted(os.listdir(out))}
    shutil.rmtree(out)
    assert len(files) == 6
    return {"files": files, "printed": printed.getvalue()}


def test_a_second_request_reuses_the_kernels_of_the_first(tmp_path, monkeypatch):
    # after its first build, each builder raises: the second round of
    # requests must be served by the kernels of the first, unchanged
    def once(build):
        calls = []

        def patched(*args):
            if calls:
                raise RuntimeError("kernel built twice")
            calls.append(args)
            return build(*args)
        return patched

    frame_mod._kernel.cache_clear()
    monkeypatch.setattr(frame_mod, "_build_frame", once(frame_mod._build_frame))
    monkeypatch.setattr(frame_mod, "_build_pair", once(frame_mod._build_pair))
    first = _round(tmp_path, "gauss_w1")
    assert _round(tmp_path, "gauss_w1") == first
    assert frame_mod._kernel.cache_info().misses == 2


@pytest.mark.parametrize("member", ["gauss_w05", "bandnoise_a"])
def test_cold_and_warm_requests_write_the_same_bytes(tmp_path, member):
    frame_mod._kernel.cache_clear()
    cold = _round(tmp_path, member)
    assert _round(tmp_path, member) == cold


def test_every_array_of_a_cached_kernel_is_read_only(ladder):
    spec = vb.make_grid(1, 16.0, 1024)
    frame = vb.build_resolution_of_unity(spec, ladder)
    pair = vb.build_local_mean_pair(spec, ladder, S=2)
    prof = frame.profile
    arrays = [frame.level0, frame.level0_analysis, frame.radius,
              prof.coef, prof.integ, prof.integ2, *frame.blocks,
              pair.radius, pair.level0, *pair.blocks,
              ladder.t, ladder.weights]
    assert len(frame.blocks) == len(pair.blocks) == ladder.octaves
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert frame.blocks is vb.build_resolution_of_unity(spec, ladder).blocks


def test_a_failed_certification_is_never_cached(spec4k):
    cases = [lambda: vb.build_resolution_of_unity(spec4k, vb.make_ladder(8, 3)),
             lambda: vb.build_local_mean_pair(vb.make_grid(2, 16.0, 32), vb.make_ladder(), S=1)]
    for build in cases:
        for _ in range(3):
            before = frame_mod._kernel.cache_info()
            with pytest.raises(ConstructionError):
                build()
            after = frame_mod._kernel.cache_info()
            assert after.misses == before.misses + 1 and after.hits == before.hits


def test_each_key_gives_its_own_kernel():
    spec, ladder = vb.make_grid(1, 16.0, 1024), vb.make_ladder(6, 12)
    specs = [spec, vb.make_grid(1, 16.0, 2048), vb.make_grid(1, 32.0, 1024),
             vb.make_grid(2, 16.0, 64)]
    ladders = [ladder, vb.make_ladder(7, 12), vb.make_ladder(6, 16)]

    def frame_key(k):
        return k.spec, k.ladder, k.profile.params

    def pair_key(k):
        return k.spec, k.ladder, k.S, k.epsilon

    frames = [(s, ladder, BumpParams()) for s in specs]
    frames += [(spec, lad, BumpParams()) for lad in ladders[1:]] + [(spec, ladder, BumpParams(10))]
    pairs = [(s, ladder, 1, 1.0) for s in specs]
    pairs += [(spec, lad, 1, 1.0) for lad in ladders[1:]]
    pairs += [(spec, ladder, 2, 1.0), (spec, ladder, 1, 2.0)]
    for build, keys, key_of in ((vb.build_resolution_of_unity, frames, frame_key),
                                (vb.build_local_mean_pair, pairs, pair_key)):
        kernels = []
        for key in keys:
            kernels.append(build(*key))
            assert build(*key) is kernels[-1]
            assert key_of(kernels[-1]) == key
        assert len({id(k) for k in kernels}) == len(keys)


def test_the_cache_never_holds_more_than_its_cap():
    spec = vb.make_grid(1, 16.0, 1024)
    frame_mod._kernel.cache_clear()
    for i, octaves in enumerate(range(2, 2 + 2 * KERNEL_CACHE_SIZE)):
        vb.build_local_mean_pair(spec, vb.make_ladder(octaves, 12), S=0)
        assert frame_mod._kernel.cache_info().currsize == min(i + 1, KERNEL_CACHE_SIZE)
