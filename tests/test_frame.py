import numpy as np
import pytest

import vbesov as vb
from oracles import identity_residual_full_grid, identity_residual_per_node
from vbesov.errors import ConstructionError, ParameterError
from vbesov.frame import BumpParams, build_radial_profile, identity_residual
from vbesov.grid import from_spectrum, mirror, spectrum


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
    k0 = from_spectrum(spec4k, pair.level0)
    assert np.max(np.abs(pair.k.samples - k0.samples)) < 1e-12


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
    with pytest.raises(ParameterError):
        vb.build_local_mean_pair(spec4k, ladder, S=1, epsilon=1e6)


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
    for v in range(1, ladder.octaves + 1):
        ts = ladder.t[ladder.octave_slice(v)]
        for kern, at in ((frame, frame.profile.phi_hat), (pair, pair.k_spectrum_at)):
            block = kern.multipliers(ts)
            assert block.shape == (ts.size,) + spec.half_shape
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
    res = identity_residual(profile, ladder, xi_max)
    assert res == identity_residual_per_node(profile, ladder, xi_max)
    assert res == identity_residual_full_grid(profile, ladder, xi_max)


@pytest.mark.parametrize("order", range(2, 10))
def test_phi_hat_horner_is_polyval_bit_for_bit(order):
    from numpy.polynomial import polynomial as npoly

    from vbesov.frame import _even_polyval

    profile = build_radial_profile(BumpParams(order))
    rng = np.random.default_rng(order)
    z = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 20000)])
    got, want = _even_polyval(z, profile.coef), npoly.polyval(z, profile.coef)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    s = 2.0 ** z
    zs = np.log2(s)
    inside = np.abs(zs) < 1.0
    assert np.array_equal(profile.phi_hat(s)[inside],
                          npoly.polyval(zs[inside], profile.coef) / profile.c_b)
