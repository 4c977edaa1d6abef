import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from vbesov.errors import ParameterError
from vbesov.grid import cube_mask, cubes_per_axis, from_spectrum, read_csv, spectrum, write_csv


def test_make_grid_spacing():
    spec = vb.make_grid(1, 16.0, 4096)
    assert spec.spacing == 16.0 / 4096 == 0.00390625


def test_make_grid_coordinates():
    spec = vb.make_grid(1, 1.0, 16)
    x = spec.axis_coords()
    assert x[0] == -0.5
    assert np.allclose(np.diff(x), 1.0 / 16)
    assert x[-1] == pytest.approx(0.5 - 1.0 / 16)


@pytest.mark.parametrize("bad", [(1, 16.0, 100), (1, 16.0, 8), (1, -1.0, 64), (3, 16.0, 64)])
def test_make_grid_rejects(bad):
    with pytest.raises(ParameterError):
        vb.make_grid(*bad)


def test_convolve_delta_identity(spec4k):
    h = spec4k.spacing
    d = np.zeros(spec4k.shape)
    d[spec4k.points_per_axis // 2] = 1.0 / h  # discrete delta of mass 1 at x=0
    g = vb.from_callable(spec4k, lambda x: np.cos(3 * x) * np.exp(-x ** 2 / 4))
    out = vb.convolve(vb.GridFunction(spec4k, d), g)
    assert np.max(np.abs(out.samples - g.samples)) < 1e-12


def test_convolve_constant(spec4k):
    one = vb.from_callable(spec4k, lambda x: np.ones_like(x))
    g = vb.from_callable(spec4k, lambda x: np.exp(-x ** 2))  # integral sqrt(pi)
    g = g.with_samples(g.samples * 3 / np.sqrt(np.pi))       # integral 3
    out = vb.convolve(one, g)
    assert np.max(np.abs(out.samples - 3.0)) < 1e-10


def test_convolve_gaussians_closed_form(spec4k):
    s1, s2 = 0.5, 0.8
    x = spec4k.axis_coords()
    g1 = vb.from_callable(spec4k, lambda x: np.exp(-x ** 2 / (2 * s1 ** 2)))
    g2 = vb.from_callable(spec4k, lambda x: np.exp(-x ** 2 / (2 * s2 ** 2)))
    s3 = np.hypot(s1, s2)
    oracle = np.sqrt(2 * np.pi) * s1 * s2 / s3 * np.exp(-x ** 2 / (2 * s3 ** 2))
    out = vb.convolve(g1, g2)
    assert np.max(np.abs(out.samples - oracle)) < 1e-8


def test_convolve_grid_mismatch(spec4k, spec1k):
    f = vb.from_callable(spec4k, lambda x: x)
    g = vb.from_callable(spec1k, lambda x: x)
    with pytest.raises(ParameterError):
        vb.convolve(f, g)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_convolve_commutative_bilinear(seed):
    spec = vb.make_grid(1, 16.0, 256)
    rng = np.random.default_rng(seed)
    freqs = spec.freq_radius()

    def band_limited():
        s = rng.normal(size=spec.shape) * (freqs <= 20)
        return vb.GridFunction(spec, np.fft.ifft(s).real)

    f, g, w = band_limited(), band_limited(), band_limited()
    fg = vb.convolve(f, g).samples
    gf = vb.convolve(g, f).samples
    scale = max(np.abs(fg).max(), 1e-30)
    assert np.max(np.abs(fg - gf)) / scale < 1e-12
    lin = vb.convolve(f.with_samples(f.samples + 2 * w.samples), g).samples
    ref = fg + 2 * vb.convolve(w, g).samples
    assert np.max(np.abs(lin - ref)) / max(np.abs(ref).max(), 1e-30) < 1e-12


def test_spectral_derivative_sin(spec4k):
    L = spec4k.box_length
    x = spec4k.axis_coords()
    f = vb.from_callable(spec4k, lambda x: np.sin(2 * np.pi * x / L))
    out = vb.spectral_derivative(f, 1)
    assert np.max(np.abs(out.samples - (2 * np.pi / L) * np.cos(2 * np.pi * x / L))) < 1e-10


def test_spectral_derivative_constant(spec1k):
    f = vb.from_callable(spec1k, lambda x: np.full_like(x, 2.5))
    for order in (1, 2, 3):
        assert np.max(np.abs(vb.spectral_derivative(f, order).samples)) < 1e-10


def test_spectral_derivative_gaussian_second(spec4k):
    x = spec4k.axis_coords()
    f = vb.from_callable(spec4k, lambda x: np.exp(-x ** 2 / 2))
    oracle = (x ** 2 - 1) * np.exp(-x ** 2 / 2)
    out = vb.spectral_derivative(f, 2)
    assert np.max(np.abs(out.samples - oracle)) < 1e-8


def test_derivative_composition(spec4k):
    f = vb.from_callable(spec4k, lambda x: np.cos(5 * x) * np.exp(-x ** 2 / 3))
    once_twice = vb.spectral_derivative(vb.spectral_derivative(f, 1), 1)
    direct = vb.spectral_derivative(f, 2)
    scale = np.abs(direct.samples).max()
    assert np.max(np.abs(once_twice.samples - direct.samples)) / scale < 1e-9


def test_integrate_constant(spec4k):
    f = vb.from_callable(spec4k, lambda x: np.ones_like(x))
    assert vb.integrate(f) == pytest.approx(16.0, abs=1e-12)


def test_integrate_indicator_weighted(spec4k):
    x = spec4k.axis_coords()
    f = vb.GridFunction(spec4k, (x < 0).astype(float))
    w = vb.from_callable(spec4k, lambda x: np.full_like(x, 2.0))
    assert vb.integrate(f, w) == pytest.approx(16.0, abs=1e-12)


def test_integrate_gaussian(spec4k):
    f = vb.from_callable(spec4k, lambda x: np.exp(-x ** 2))
    assert abs(vb.integrate(f) - np.sqrt(np.pi)) < 1e-10


def test_integrate_negative_weight_rejected(spec1k):
    f = vb.from_callable(spec1k, lambda x: np.ones_like(x))
    w = vb.from_callable(spec1k, lambda x: -np.ones_like(x))
    with pytest.raises(ParameterError):
        vb.integrate(f, w)


def test_parseval(spec4k):
    f = vb.from_callable(spec4k, lambda x: np.cos(7 * x) * np.exp(-x ** 2 / 5))
    energy_x = vb.integrate(vb.GridFunction(spec4k, np.abs(f.samples) ** 2))
    ft = spectrum(f)
    energy_xi = float(np.sum(np.abs(ft) ** 2) / spec4k.box_length)
    assert abs(energy_x - energy_xi) / energy_x < 1e-10


def test_spectrum_roundtrip(spec1k):
    f = vb.from_callable(spec1k, lambda x: np.sin(x) + 1j * np.cos(2 * x))
    back = from_spectrum(spec1k, spectrum(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12


def test_nan_rejected(spec1k):
    vals = np.zeros(spec1k.shape)
    vals[0] = np.nan
    with pytest.raises(ParameterError):
        vb.GridFunction(spec1k, vals)


def test_dyadic_cube_geometry():
    c = vb.DyadicCube(3, (5,))
    assert c.side == 2.0 ** -3
    assert c.corner == (5 * 2.0 ** -3,)


def test_cubes_tile_box(spec1k):
    for level in (0, 2, 4):
        nc = cubes_per_axis(spec1k, level)
        assert nc == 16 * 2 ** level
        total = np.zeros(spec1k.shape, dtype=int)
        for j in np.ndindex(*(nc,) * spec1k.dimension):
            total += cube_mask(spec1k, vb.DyadicCube(level, tuple(i - nc // 2 for i in j)))
        assert (total == 1).all()


def test_csv_roundtrip(tmp_path, spec1k):
    f = vb.from_callable(spec1k, lambda x: np.sin(x) + 1j * x)
    path = tmp_path / "f.csv"
    write_csv(f, str(path))
    back = read_csv(str(path), spec1k)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-15


@pytest.mark.parametrize("dimension", [1, 2])
def test_write_csv_bytes_equal_the_row_writer(tmp_path, dimension):
    from oracles import write_csv_rows

    spec = vb.make_grid(dimension, 8.0, 16)
    rng = np.random.default_rng(dimension)
    z = (rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)) * 1e3
    z[:6] = [-0.0, 1e-300, -1e-300j, complex(-0.0, -0.0), 1.0, 0.1 + 0.2j]
    f = vb.GridFunction(spec, z.reshape(spec.shape))
    write_csv(f, str(tmp_path / "block.csv"))
    write_csv_rows(f, str(tmp_path / "rows.csv"))
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\r\n") == spec.size + 1
    assert b"-0.0" in got and b"1e-300" in got


def test_2d_smoke():
    spec = vb.make_grid(2, 8.0, 32)
    f = vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + y ** 2)))
    assert abs(vb.integrate(f) - np.pi) < 1e-6
    d = vb.spectral_derivative(f, (1, 0))
    x = spec.coords()
    oracle = -2 * x[..., 0] * np.exp(-(x[..., 0] ** 2 + x[..., 1] ** 2))
    assert np.max(np.abs(d.samples - oracle)) < 1e-6
    g = vb.convolve(f, f)
    assert abs(vb.integrate(g) - np.pi ** 2) < 1e-5


def test_finest_aligned_level():
    assert vb.grid.finest_aligned_level(vb.make_grid(1, 16.0, 2048)) == 7
    assert vb.grid.finest_aligned_level(vb.make_grid(2, 16.0, 32)) == 1
    # h = 10/1024 divides no dyadic side, so not even level 0 aligns
    assert vb.grid.finest_aligned_level(vb.make_grid(1, 10.0, 1024)) == -1


@pytest.mark.parametrize("N", [16, 4096])
@pytest.mark.parametrize("L", [16.0, 10.0])
def test_1d_radius_is_abs_bit_for_bit(N, L):
    # the n-generic sqrt(sum of squares) must reproduce |x| exactly in 1-D
    spec = vb.make_grid(1, L, N)
    assert np.array_equal(spec.radius(), np.abs(spec.axis_coords()))
    assert np.array_equal(spec.freq_radius(), np.abs(spec.axis_freqs()))


def test_2d_from_callable_of_one_coordinate_fills_the_grid():
    spec = vb.make_grid(2, 8.0, 16)
    f = vb.from_callable(spec, lambda x, y: np.cos(x))
    x = spec.axis_coords()
    assert f.samples.shape == (16, 16)
    assert np.array_equal(f.samples, np.broadcast_to(np.cos(x)[:, None], (16, 16)))
    p = vb.field_from_callable(spec, lambda x, y: 2.0 + np.cos(x), "p", 2.0)
    assert np.array_equal(p.grid_values(), np.broadcast_to(2.0 + np.cos(x)[:, None], (16, 16)))


@pytest.mark.parametrize("dimension, N", [(1, 16), (1, 4096), (2, 32)])
def test_phase_is_cached_read_only_and_matches_the_formula(dimension, N):
    spec = vb.make_grid(dimension, 16.0, N)
    sign = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    formula = sign if dimension == 1 else np.multiply.outer(sign, sign)
    phase = vb.grid._phase(spec)
    assert phase.shape == spec.shape and np.array_equal(phase, formula)
    assert vb.grid._phase(vb.make_grid(dimension, 10.0, N)) is phase  # shared per shape
    with pytest.raises(ValueError):
        phase[0] = 2.0


@pytest.mark.parametrize("dimension, N", [(1, 16), (1, 2048), (2, 32)])
def test_float_view_scaling_has_the_bits_of_the_complex_arithmetic(dimension, N):
    # the sign and h^n scalings run on the float64 views; on samples with no
    # zero part every bit equals the complex product and quotient
    spec = vb.make_grid(dimension, 16.0, N)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((3,) + spec.shape) + 1j * rng.standard_normal((3,) + spec.shape)
    phase, h = vb.grid._phase(spec), spec.spacing ** dimension
    axes = tuple(range(-dimension, 0))
    want = np.fft.ifftn(block * phase, axes=axes)
    want /= h
    got = vb.grid.from_spectrum_rows(spec, block)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    want = np.fft.fftn(block, axes=axes)
    want *= h * phase
    got = vb.grid.spectrum_rows(spec, block)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a real spectrum is taken as complex
    assert np.array_equal(vb.grid.from_spectrum_rows(spec, block.real),
                          vb.grid.from_spectrum_rows(spec, block.real + 0j))
    pairs = vb.grid._phase_pairs(spec)
    assert pairs.shape == spec.shape[:-1] + (2 * N,)
    assert np.array_equal(pairs[..., ::2], phase) and np.array_equal(pairs[..., 1::2], phase)
    assert vb.grid._phase_pairs(vb.make_grid(dimension, 10.0, N)) is pairs
    with pytest.raises(ValueError):
        pairs[..., 0] = 2.0
