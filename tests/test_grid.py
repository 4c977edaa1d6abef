import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
from vbesov.errors import ParameterError
from vbesov.grid import (cube_mask, cubes_in_box, from_spectrum, read_csv,
                         read_raw, spectrum, write_csv, write_raw)


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
        cubes = list(cubes_in_box(spec1k, level))
        assert len(cubes) == 16 * 2 ** level
        total = np.zeros(spec1k.shape, dtype=int)
        for c in cubes:
            total += cube_mask(spec1k, c)
        assert (total == 1).all()


def test_csv_roundtrip(tmp_path, spec1k):
    f = vb.from_callable(spec1k, lambda x: np.sin(x) + 1j * x)
    path = tmp_path / "f.csv"
    write_csv(f, str(path))
    back = read_csv(str(path), spec1k)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-15


def test_raw_roundtrip(tmp_path, spec1k):
    f = vb.from_callable(spec1k, lambda x: np.exp(1j * x))
    path = tmp_path / "f.vbgf"
    write_raw(f, str(path))
    back = read_raw(str(path))
    assert back.spec == spec1k
    assert np.array_equal(back.samples, f.samples)


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
