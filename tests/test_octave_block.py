"""The octave block against the per-node computation it replaces.

Each octave's ladder nodes run as one (nodes, *grid) array: multipliers from
one kernel call, one batched inverse FFT, one row-wise Luxemburg solve.  The
byte-identical decompose/synthesize outputs rest on every block row equal,
bit for bit, to the per-node `from_spectrum(spec, A * F).samples`; these
tests hold that for every ladder node and level 0, in 1-D and 2-D, and in
both spectrum layouts: the full one of `analyze` and complex input, and the
half one (`rfftn`) of a real input's norm profile.
"""

import numpy as np
import pytest

import vbesov as vb
from oracles import (POWER_WEIGHT_RTOL, identity_residual_per_node, kernel_profile_full,
                     scale_profile_per_node)
from vbesov.atoms import _level
from vbesov.bank import make_member
from vbesov.besov import _kernel_profile
from vbesov.config import RunConfig
from vbesov.grid import _sign_pairs, band_rows, band_spectrum, from_spectrum, mirror, spectrum
from vbesov.luxemburg import t_norm

GRIDS = [(1, 2048), (1, 4096), (2, 32), (2, 64)]


def _input(spec):
    if spec.dimension == 1:
        return vb.from_callable(spec, lambda x: np.cos(5 * x) * np.exp(-x ** 2 / 2)
                                + 0.3 * np.exp(-8 * (x - 1) ** 2))
    return vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2) / 2)
                            * (1 + 0.5 * np.cos(3 * x)))


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: f"{g[0]}d-N{g[1]}")
def setup(request):
    dimension, N = request.param
    spec = vb.make_grid(dimension, 16.0, N)
    ladder = vb.make_ladder()
    frame = vb.build_resolution_of_unity(spec, ladder)
    # S >= 1 does not certify in 2-D below N = 64 (README, the 2-D sweep)
    pair = vb.build_local_mean_pair(spec, ladder, S=2 if dimension == 1 or N >= 64 else -1)
    return spec, ladder, frame, pair, spectrum(_input(spec))


def _octaves(ladder):
    return [ladder.t[ladder.octave_slice(v)] for v in range(1, ladder.octaves + 1)]


def _layouts(spec, F):
    """(radii, spectrum) of the full layout and of the half layout of the
    same real input."""
    half = band_spectrum(_input(spec))
    assert half.shape == spec.half_shape
    return [(spec.freq_radius(), F), (spec.half_freq_radius(), half)]


def test_from_spectrum_is_the_textbook_inverse(setup):
    spec, _, frame, _, F = setup
    h = spec.spacing ** spec.dimension
    phase = _sign_pairs(spec.points_per_axis, spec.dimension)[..., ::2]
    ft = mirror(spec, frame.level0) * F
    want = np.fft.ifftn(ft * phase) / h
    assert np.array_equal(from_spectrum(spec, ft).samples, want)
    _, Fh = _layouts(spec, F)[1]
    ft = frame.level0 * Fh
    half_phase = phase[..., :ft.shape[-1]]
    want = np.fft.irfftn(ft * half_phase, s=spec.shape, axes=range(spec.dimension)) / h
    assert np.array_equal(from_spectrum(spec, ft).samples, want)


def test_frame_block_rows_equal_the_per_node_multipliers(setup):
    spec, ladder, frame, _, F = setup
    for radius, Fl in _layouts(spec, F):
        for ts in _octaves(ladder):
            bands = band_rows(spec, frame.multipliers(ts), Fl)
            for t, g in zip(ts, bands):
                want = frame.profile.phi_hat(t * radius)
                assert np.array_equal(g, from_spectrum(spec, want * Fl).samples), t
        want = frame.profile.Phi_hat(radius)
        assert np.array_equal(band_rows(spec, frame.level0[None], Fl)[0],
                              from_spectrum(spec, want * Fl).samples)


def test_local_mean_block_rows_equal_the_per_node_multipliers(setup):
    spec, ladder, _, pair, F = setup
    for radius, Fl in _layouts(spec, F):
        for ts in _octaves(ladder):
            bands = band_rows(spec, pair.multipliers(ts), Fl)
            for t, g in zip(ts, bands):
                want = pair.k_spectrum_at(t * radius)
                assert np.array_equal(g, from_spectrum(spec, want * Fl).samples), t
        want = pair.k0_spectrum_at(radius)
        assert np.array_equal(band_rows(spec, pair.level0[None], Fl)[0],
                              from_spectrum(spec, want * Fl).samples)


def test_atoms_level_rows_equal_the_per_node_bands(setup):
    spec, ladder, frame, _, F = setup
    sr = spec.freq_radius()
    for v in range(ladder.octaves + 1):
        ws, synth, block = _level(frame, v)
        bands = band_rows(spec, block, F)
        if v == 0:
            nodes, weights = [None], [1.0]
            analysis, synthesis = [frame.profile.Psi_hat(sr)], [frame.profile.Phi_hat(sr)]
        else:
            sl = ladder.octave_slice(v)
            nodes, weights = ladder.t[sl], ladder.weights[sl]
            analysis = [frame.profile.psi_hat(t * sr) for t in nodes]
            synthesis = [frame.profile.phi_hat(t * sr) for t in nodes]
        assert np.array_equal(ws, weights)
        # the level's half-grid blocks, mirrored, are the full-grid evaluations
        for g, row, S, A, B in zip(bands, mirror(spec, block), mirror(spec, synth),
                                   analysis, synthesis):
            assert np.array_equal(row, A), v
            assert np.array_equal(g, from_spectrum(spec, A * F).samples), v
            assert np.array_equal(S, B), v
        assert len(bands) == len(block) == len(synth) == len(analysis)


@pytest.mark.parametrize("order", [6, 10])
def test_frame_residual_equals_the_per_node_loop(setup, order):
    spec, ladder, _, _, _ = setup
    frame = vb.build_resolution_of_unity(spec, ladder, vb.BumpParams(order))
    assert frame.residual == identity_residual_per_node(frame.profile, ladder,
                                                        frame.resolved_xi_max)


EXPONENTS = {
    "const": RunConfig(p="2", alpha="1 / 2", q="2"),
    "variable": RunConfig(p="3 + sin(2 * pi * x / 16)",
                          alpha="3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                          q="2 + 1 / log(e + 1 / t)"),
}


# (maximal step, kernel, exponents, bank member or None for _input at N = 512,
# layout: "half" for the real input, "full" for a complex one)
PROFILE_CASES = [(maximal, kernel, config, None, "half") for maximal in (None, 2.0)
                 for kernel in ("frame", "local_mean") for config in sorted(EXPONENTS)]
PROFILE_CASES += [(maximal, kernel, "variable", None, "full") for maximal in (None, 2.0)
                  for kernel in ("frame", "local_mean")]
# the norm-light request `norm --form local_mean_double_prime` with the
# variable exponents: one zero sample in row 8 of octave 1
PROFILE_CASES.append((None, "local_mean", "variable", "gauss_w05", "half"))


def _kernel(spec, ladder, kernel):
    if kernel == "frame":
        return vb.build_resolution_of_unity(spec, ladder)
    return vb.build_local_mean_pair(spec, ladder, S=2 if spec.dimension == 1 else 1)


def _per_node_multipliers(kern, radius):
    """(band(t), level-0 multiplier) evaluated on `radius`, one node at a time."""
    if isinstance(kern, vb.CalderonFrame):
        return (lambda t: kern.profile.phi_hat(t * radius)), kern.profile.Phi_hat(radius)
    return (lambda t: kern.k_spectrum_at(t * radius)), kern.k0_spectrum_at(radius)


@pytest.mark.parametrize("maximal, kernel, config, member, layout", PROFILE_CASES,
                         ids=["-".join(map(str, c[:3])) + (f"-{c[3]}" if c[3] else "")
                              + ("-complex" if c[4] == "full" else "") for c in PROFILE_CASES])
def test_block_profile_equals_the_per_node_pipeline(config, kernel, maximal, member, layout):
    # the row solver gives each row the bits of a one-row call on the same
    # inputs: without a maximal step the weights t^-alpha(x) enter both as
    # log terms, and the power-weight oracle is within POWER_WEIGHT_RTOL.
    # Only a constant exponent differs, through numpy's scalar-power path:
    # its last-bit changes move the closed form R^(1/p), and can flip the
    # guard on the bracket, which steps it by a few ulps (2 ulps measured).
    # The oracle follows the input's layout: the half grid for a real f,
    # the full grid for a complex one.
    if member is None:
        spec, ladder = vb.make_grid(1, 16.0, 512), vb.make_ladder(6, 12)
        f = _input(spec)
    else:
        spec, ladder = vb.make_grid(1, 16.0, 4096), vb.make_ladder(8, 12)
        f = make_member(spec, member)
    if layout == "full":
        f = f.with_samples(f.samples + 0.25j * np.roll(f.samples.real, 7))
    cfg = EXPONENTS[config]
    p, alpha = cfg.p_field(spec), cfg.alpha_field(spec)
    F = band_spectrum(f)
    radius = spec.half_freq_radius() if layout == "half" else spec.freq_radius()
    assert F.shape == radius.shape
    kern = _kernel(spec, ladder, kernel)
    band, level0 = _per_node_multipliers(kern, radius)
    prof = _kernel_profile(f, kern, alpha, p, maximal)
    vals, lev0 = scale_profile_per_node(spec, F, band, level0, ladder, alpha, p, maximal)
    if config == "variable" and maximal is None:
        logs, lev0_logs = scale_profile_per_node(spec, F, band, level0, ladder, alpha, p,
                                                 log_weights=True)
        assert np.array_equal(prof.values, logs) and prof.level0 == lev0_logs == lev0
        assert np.allclose(prof.values, vals, rtol=POWER_WEIGHT_RTOL, atol=0.0)
    elif config == "variable":
        assert np.array_equal(prof.values, vals) and prof.level0 == lev0
    else:
        assert np.allclose(prof.values, vals, rtol=1e-15, atol=0.0)
        assert prof.level0 == pytest.approx(lev0, rel=1e-15)


def _gauss_2d(spec):
    return vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2) / 2)
                            * (1 + 0.5 * np.cos(3 * x)))


# (dimension, kernel, exponents, maximal step, bank member or None, layout)
HALF_CASES = [(1, kernel, config, maximal, None, "half") for kernel in ("frame", "local_mean")
              for config in sorted(EXPONENTS) for maximal in (None, 2.0)]
HALF_CASES += [(1, "frame", config, None, m, "half") for config in sorted(EXPONENTS)
               for m in ("smoothstep_w1", "bandnoise_a")]
HALF_CASES += [(2, kernel, config, None, None, "half") for kernel in ("frame", "local_mean")
               for config in sorted(EXPONENTS)]
# a complex f: the p = 2 profile from its full spectrum, against the bands
HALF_CASES.append((1, "frame", "const", None, None, "full"))


@pytest.mark.parametrize("dimension, kernel, config, maximal, member, layout", HALF_CASES,
                         ids=[f"{c[0]}d-{c[1]}-{c[2]}-{c[3]}" + (f"-{c[4]}" if c[4] else "")
                              + ("-complex" if c[5] == "full" else "") for c in HALF_CASES])
def test_half_spectrum_profile_is_the_full_layout_within_1e_13(dimension, kernel, config,
                                                               maximal, member, layout):
    # rfftn and fftn round differently, so the half path moves the bits; a
    # per-node relative bound would read rounding noise where a band is
    # near zero (0.54 measured at a 1.3e-20 node in 2-D at N = 64), so the
    # bound is relative to the profile's largest node value and to the norm.
    # At p = 2 (const) and no maximal step the library's profile is the
    # Parseval sum over f's spectrum, and the oracle's the spatial bands.
    if dimension == 1:
        N = 512 if member is None else 4096
        spec, ladder = vb.make_grid(1, 16.0, N), vb.make_ladder(6 if member is None else 8, 12)
        f = _input(spec) if member is None else make_member(spec, member, seed=7)
        if layout == "full":
            f = f.with_samples(f.samples + 0.25j * np.roll(f.samples.real, 7))
        cfg = EXPONENTS[config]
        p, alpha, q = cfg.p_field(spec), cfg.alpha_field(spec), cfg.q_field(ladder)
    else:
        spec, ladder = vb.make_grid(2, 16.0, 64), vb.make_ladder(5, 12)
        f = _gauss_2d(spec)
        if config == "const":
            p, alpha = vb.constant_field(spec, 2.0, "p"), vb.constant_field(spec, 0.5, "alpha")
        else:
            p = vb.field_from_callable(spec, lambda x, y: 3 + np.sin(2 * np.pi * x / 16), "p", 3.0)
            alpha = vb.field_from_callable(spec, lambda x, y: 0.3 + 0.2 * np.cos(y), "alpha", 0.3)
        q = EXPONENTS[config].q_field(ladder)
    kern = _kernel(spec, ladder, kernel)
    half = _kernel_profile(f, kern, alpha, p, maximal)
    full = kernel_profile_full(f, kern, alpha, p, maximal)
    scale = max(full.values.max(), full.level0)
    assert np.max(np.abs(half.values - full.values)) <= 1e-13 * scale
    assert abs(half.level0 - full.level0) <= 1e-13 * scale
    norm_half = half.level0 + t_norm(half.values, q, ladder, "variable")
    norm_full = full.level0 + t_norm(full.values, q, ladder, "variable")
    assert norm_half == pytest.approx(norm_full, rel=1e-13, abs=0.0)
