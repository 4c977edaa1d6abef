"""The octave block against the per-node computation it replaces.

Each octave's ladder nodes run as one (nodes, *grid) array: multipliers from
one kernel call, one batched inverse FFT, one row-wise Luxemburg solve.  The
byte-identical decompose/synthesize outputs rest on every block row equal,
bit for bit, to the per-node `from_spectrum(spec, A * F).samples`; these
tests hold that for every ladder node and level 0, in 1-D and 2-D.
"""

import numpy as np
import pytest

import vbesov as vb
from oracles import identity_residual_per_node, scale_profile_per_node
from vbesov.atoms import _level
from vbesov.bank import make_member
from vbesov.besov import _kernel_profile
from vbesov.config import RunConfig
from vbesov.grid import _phase, band_rows, from_spectrum, spectrum

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


def test_from_spectrum_is_the_textbook_inverse(setup):
    spec, _, frame, _, F = setup
    ft = frame.level0 * F
    want = np.fft.ifftn(ft * _phase(spec)) / spec.spacing ** spec.dimension
    assert np.array_equal(from_spectrum(spec, ft).samples, want)


def test_frame_block_rows_equal_the_per_node_multipliers(setup):
    spec, ladder, frame, _, F = setup
    sr = spec.freq_radius()
    for ts in _octaves(ladder):
        block = frame.multipliers(ts)
        bands = band_rows(spec, block, F)
        for t, A, g in zip(ts, block, bands):
            want = frame.profile.phi_hat(t * sr)
            assert np.array_equal(A, want), t
            assert np.array_equal(g, from_spectrum(spec, want * F).samples), t
    assert np.array_equal(band_rows(spec, frame.level0[None], F)[0],
                          from_spectrum(spec, frame.level0 * F).samples)


def test_local_mean_block_rows_equal_the_per_node_multipliers(setup):
    spec, ladder, _, pair, F = setup
    sr = spec.freq_radius()
    for ts in _octaves(ladder):
        block = pair.multipliers(ts)
        bands = band_rows(spec, block, F)
        for t, A, g in zip(ts, block, bands):
            want = pair.k_spectrum_at(t * sr)
            assert np.array_equal(A, want), t
            assert np.array_equal(g, from_spectrum(spec, want * F).samples), t
    k0 = pair.level0
    assert np.array_equal(k0, pair.k0_spectrum_at(sr))
    assert np.array_equal(band_rows(spec, k0[None], F)[0], from_spectrum(spec, k0 * F).samples)


def test_atoms_level_rows_equal_the_per_node_bands(setup):
    spec, ladder, frame, _, F = setup
    sr = spec.freq_radius()
    for v in range(ladder.octaves + 1):
        ws, synth, block = _level(frame, v)
        bands = band_rows(spec, block, F)
        if v == 0:
            nodes, weights = [None], [1.0]
            analysis, synthesis = [frame.profile.Psi_hat(sr)], [frame.level0]
        else:
            sl = ladder.octave_slice(v)
            nodes, weights = ladder.t[sl], ladder.weights[sl]
            analysis = [frame.profile.psi_hat(t * sr) for t in nodes]
            synthesis = [frame.profile.phi_hat(t * sr) for t in nodes]
        assert np.array_equal(ws, weights)
        for g, row, S, A, B in zip(bands, block, synth, analysis, synthesis):
            assert np.array_equal(row, A), v
            assert np.array_equal(g, from_spectrum(spec, A * F).samples), v
            assert np.array_equal(S, B), v
        assert len(bands) == len(block) == len(synth) == len(analysis)


def test_frame_residual_equals_the_per_node_loop(setup):
    _, ladder, frame, _, _ = setup
    assert frame.residual == identity_residual_per_node(frame.profile, ladder,
                                                        frame.resolved_xi_max)


EXPONENTS = {
    "const": RunConfig(p="2", alpha="1 / 2", q="2"),
    "variable": RunConfig(p="3 + sin(2 * pi * x / 16)",
                          alpha="3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                          q="2 + 1 / log(e + 1 / t)"),
}


# (maximal step, kernel, exponents, bank member or None for _input at N = 512)
PROFILE_CASES = [(maximal, kernel, config, None) for maximal in (None, 2.0)
                 for kernel in ("frame", "local_mean") for config in sorted(EXPONENTS)]
# the norm-light request `norm --form local_mean_double_prime` with the
# variable exponents: one zero sample in row 8 of octave 1
PROFILE_CASES.append((None, "local_mean", "variable", "gauss_w05"))


@pytest.mark.parametrize("maximal, kernel, config, member", PROFILE_CASES,
                         ids=["-".join(map(str, c[:3])) + (f"-{c[3]}" if c[3] else "")
                              for c in PROFILE_CASES])
def test_block_profile_equals_the_per_node_pipeline(config, kernel, maximal, member):
    # the row solver gives each row the bits of a one-row call; only a
    # constant exponent differs, through numpy's scalar-power path: its
    # last-bit changes move the closed form R^(1/p), and can flip the guard
    # on the bracket, which steps it by a few ulps (2 ulps measured)
    if member is None:
        spec, ladder = vb.make_grid(1, 16.0, 512), vb.make_ladder(6, 12)
        f = _input(spec)
    else:
        spec, ladder = vb.make_grid(1, 16.0, 4096), vb.make_ladder(8, 12)
        f = make_member(spec, member)
    cfg = EXPONENTS[config]
    p, alpha = cfg.p_field(spec), cfg.alpha_field(spec)
    F = spectrum(f)
    sr = spec.freq_radius()
    if kernel == "frame":
        frame = vb.build_resolution_of_unity(spec, ladder)
        band = lambda t: frame.profile.phi_hat(t * sr)
        kern, level0 = frame, frame.level0
    else:
        pair = vb.build_local_mean_pair(spec, ladder, S=2)
        band = lambda t: pair.k_spectrum_at(t * sr)
        kern, level0 = pair, pair.k0_spectrum_at(sr)
    prof = _kernel_profile(f, kern, alpha, p, maximal)
    vals, lev0 = scale_profile_per_node(spec, F, band, level0, ladder, alpha, p, maximal)
    if config == "variable":
        assert np.array_equal(prof.values, vals) and prof.level0 == lev0
    else:
        assert np.allclose(prof.values, vals, rtol=1e-15, atol=0.0)
        assert prof.level0 == pytest.approx(lev0, rel=1e-15)
