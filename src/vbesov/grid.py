"""Uniform periodic grids and the spectral operations everything else runs on.

The periodic box [-L/2, L/2)^n stands in for R^n.  All convolutions are
circular with an h^n factor so that discrete results approximate the
continuous integrals; `spectrum`/`from_spectrum` expose samples of the
continuous Fourier transform (non-unitary, angular frequency) at the grid
frequencies 2*pi*k/L.

Spectra come in two layouts, told apart by the length of their last axis.
The full layout (N) is `fftn`'s; the half layout (N/2 + 1) is `rfftn`'s,
the spectrum of real samples, whose other half is its Hermitian mirror.
Only this module tells them apart.  A real radial multiplier is even, so
the kernels keep it on the half grid, and `apply_multipliers`, `band_rows`
and `band_l2_norms` take it so with a spectrum of either layout.  A real
f's bands are real: `band_spectrum` takes its spectrum in the half layout,
where the norm profiles run.  `atoms.analyze` keeps the full layout: its
smallest coefficients are rounding noise of the band transform, some 200
ulps of the largest, which another transform moves far beyond the 1e-12
relative that the benchmark's references hold them to.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^n with N samples per axis."""

    dimension: int
    box_length: float
    points_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not 0 < self.box_length < np.inf:
            raise ParameterError(f"box_length must be positive and finite, got {self.box_length}")
        N = self.points_per_axis
        if not isinstance(N, (int, np.integer)) or not _is_power_of_two(int(N)) or N < 16:
            raise ParameterError(
                f"points_per_axis must be a power of two >= 16, got {N}"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis: -L/2 + i*h."""
        N, L = self.points_per_axis, self.box_length
        return -L / 2 + np.arange(N) * (L / N)

    def coords(self) -> np.ndarray:
        """Coordinate array: shape (N,) in 1-D, (N, N, 2) in 2-D."""
        if self.dimension == 1:
            return self.axis_coords()
        return np.stack(np.broadcast_arrays(*self.axes()), axis=-1)

    def axes(self) -> Tuple[np.ndarray, ...]:
        """Per-axis node coordinates shaped to broadcast against each other,
        np.ix_ style: (x,) in 1-D, (x[:, None], x[None, :]) in 2-D."""
        return np.ix_(*(self.axis_coords(),) * self.dimension)

    def radius(self) -> np.ndarray:
        """|x| at every node (plain distance to the origin inside the box)."""
        return np.sqrt(sum(a * a for a in self.axes()))

    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/L along one axis, fftfreq layout."""
        return 2 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def freq_axes(self) -> Tuple[np.ndarray, ...]:
        """Per-axis angular frequencies, broadcastable like `axes`."""
        return np.ix_(*(self.axis_freqs(),) * self.dimension)

    def freq_radius(self) -> np.ndarray:
        """|xi| at every grid frequency."""
        return np.sqrt(sum(a * a for a in self.freq_axes()))

    @property
    def half_shape(self) -> Tuple[int, ...]:
        """Shape of a spectrum in the `rfftn` (half) layout."""
        return self.shape[:-1] + (self.points_per_axis // 2 + 1,)

    def half_freq_radius(self) -> np.ndarray:
        """|xi| on the half grid: the first N/2 + 1 columns of `freq_radius`
        (the Nyquist column holds |-N/2|, the same radius as +N/2)."""
        return self.freq_radius()[..., :self.points_per_axis // 2 + 1]

    @property
    def nyquist(self) -> float:
        return np.pi / self.spacing


def make_grid(dimension: int, box_length: float, points_per_axis: int) -> GridSpec:
    """Validated grid constructor; node i maps to -L/2 + i*h."""
    return GridSpec(dimension, float(box_length), int(points_per_axis))


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a GridSpec.

    Immutable after construction: the sample buffer is marked read-only, so
    instances are safe to share between concurrent workers.
    """

    spec: GridSpec
    samples: np.ndarray
    tag: Optional[str] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != self.spec.shape:
            if arr.size == self.spec.size:
                arr = arr.reshape(self.spec.shape)
            else:
                raise ParameterError(
                    f"samples shape {arr.shape} incompatible with grid {self.spec.shape}"
                )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ParameterError("samples contain NaN/Inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def with_samples(self, samples: np.ndarray, tag: Optional[str] = None) -> "GridFunction":
        return GridFunction(self.spec, samples, tag if tag is not None else self.tag)

    def abs_samples(self) -> np.ndarray:
        return np.abs(self.samples)

    def is_real(self) -> bool:
        """Whether every sample has a zero imaginary part."""
        return not self.samples.imag.any()


def same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.spec != g.spec:
        raise ParameterError(f"grid mismatch: {f.spec} vs {g.spec}")


def from_callable(spec: GridSpec, fn, tag: Optional[str] = None) -> GridFunction:
    """Sample fn at the grid nodes; fn receives one dense coordinate array
    per axis."""
    vals = fn(*[np.array(a) for a in np.broadcast_arrays(*spec.axes())])
    return GridFunction(spec, np.asarray(vals, dtype=np.complex128), tag)


def zero_function(spec: GridSpec, tag: Optional[str] = None) -> GridFunction:
    return GridFunction(spec, np.zeros(spec.shape), tag)


# -- Fourier transform helpers ------------------------------------------------
#
# With x_i = -L/2 + i*h and xi_k = 2*pi*k/L, the rectangle-rule transform
#   FT(xi_k) = h^n sum_i f_i exp(-i xi_k . x_i)
# equals h^n * (-1)^(sum of raw indices... ) * fft(f); for even N the phase
# exp(+i pi k) reduces to (-1)^j with j the raw FFT index.


@functools.lru_cache(maxsize=8)
def _sign_pairs(N: int, dimension: int) -> np.ndarray:
    """The (-1)^j signs of an N^dimension grid, each twice along the last
    axis to scale the float64 view of a complex grid array (re, im) pair by
    pair; built once per grid shape and shared read-only."""
    p = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    out = functools.reduce(np.multiply.outer, (p,) * (dimension - 1) + (np.repeat(p, 2),))
    out.flags.writeable = False
    return out


def _grid_axes(spec: GridSpec) -> Tuple[int, ...]:
    return tuple(range(-spec.dimension, 0))


# A real scalar or sign scales both parts of a complex sample alike, so the
# scalings below run on the float64 (re, im) views of the complex arrays: the
# bits of the complex product with a zero imaginary part, without its cross
# terms (up to the sign of a product that is zero).


def _is_half(spec: GridSpec, ft: np.ndarray) -> bool:
    """Whether ft's last axis is the half grid's (N >= 16, so N/2 + 1 < N)."""
    return ft.shape[-1] == spec.points_per_axis // 2 + 1


def _pairs_of(spec: GridSpec, ft: np.ndarray) -> np.ndarray:
    """`_sign_pairs` in ft's layout: the half grid's are its first columns."""
    return _sign_pairs(spec.points_per_axis, spec.dimension)[..., :2 * ft.shape[-1]]


def _negated(spec: GridSpec, a: np.ndarray) -> np.ndarray:
    """a with every grid axis but the last read at -i (mod N)."""
    neg = -np.arange(spec.points_per_axis) % spec.points_per_axis
    for ax in range(-spec.dimension, -1):
        a = np.take(a, neg, axis=ax)
    return a


def mirror(spec: GridSpec, half: np.ndarray) -> np.ndarray:
    """The full layout of real even multipliers given on the half grid, one
    grid array per leading index: entry k of the full grid is the half
    grid's entry at -k (mod N along every axis) where k is not on it.  The
    frequencies at k and -k have the same |xi| to the bit, so this equals
    the evaluation on the full grid bit for bit."""
    N = spec.points_per_axis
    return np.concatenate([half, _negated(spec, half[..., N // 2 - 1:0:-1])], axis=-1)


def apply_multipliers(spec: GridSpec, multipliers: np.ndarray, ft: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """A * ft for every row A of a block of real even multipliers, given in
    ft's layout or on the half grid; a half-grid block meets a full-layout
    ft as its `mirror`.  `out` may be ft itself."""
    if _is_half(spec, multipliers) and not _is_half(spec, ft):
        multipliers = mirror(spec, multipliers)
    return np.multiply(multipliers, ft, out=out)


def spectrum_rows(spec: GridSpec, samples: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """`spectrum` of every grid array stacked along the leading axes of
    `samples`: one batched transform, row for row bit-identical to the
    single call (a scalar times the phase times the FFT).  Complex samples
    give the full layout; `out`, a C-contiguous complex array of their
    shape, may be `samples` itself.  Real (float) samples give the half
    layout, from one `rfftn`, and take no `out`."""
    if np.isrealobj(samples):
        out = np.fft.rfftn(samples, axes=_grid_axes(spec))
    else:
        out = np.fft.fftn(samples, axes=_grid_axes(spec), out=out)
    pairs = out.view(np.float64)
    pairs *= (spec.spacing ** spec.dimension) * _pairs_of(spec, out)
    return out


def _with_phase(spec: GridSpec, ft: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """ft * phase, formed on the float views in place of `out`, which may be
    ft itself: the signs are exact, so a product with them commutes with any
    other product to the bit."""
    ft = np.require(ft, np.complex128, "C")
    if out is None:
        out = np.empty(ft.shape, dtype=np.complex128)
    np.multiply(ft.view(np.float64), _pairs_of(spec, ft), out=out.view(np.float64))
    return out


def _inverse(spec: GridSpec, ft_phase: np.ndarray) -> np.ndarray:
    """The inverse transform of spectra that already carry the phase,
    divided by h^n: real rows from one `irfftn` for the half layout, and
    one `ifftn` in place of ft_phase for the full one."""
    if _is_half(spec, ft_phase):
        rows = np.fft.irfftn(ft_phase, s=spec.shape, axes=_grid_axes(spec))
    else:
        rows = np.fft.ifftn(ft_phase, axes=_grid_axes(spec), out=ft_phase)
    # numpy divides a complex array by a real scalar as a product with the
    # reciprocal: the same bits
    pairs = rows.view(np.float64)
    pairs *= 1.0 / spec.spacing ** spec.dimension
    return rows


def from_spectrum_rows(spec: GridSpec, ft: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of `spectrum_rows`, each row `from_spectrum(spec, ft[j]).samples`
    (`_inverse`).  A full-layout ft is transformed in place of `out`, a
    C-contiguous complex array of its shape, which may be `ft` itself; a
    half-layout ft takes no `out`."""
    return _inverse(spec, _with_phase(spec, ft, out))


def band_rows(spec: GridSpec, multipliers: np.ndarray, ft: np.ndarray) -> np.ndarray:
    """`from_spectrum(spec, A * ft).samples` for every row A of a block of
    real even multipliers (`apply_multipliers`): A * (ft * phase), the same
    bits as (A * ft) * phase, and one batched inverse transform."""
    return _inverse(spec, apply_multipliers(spec, multipliers, _with_phase(spec, ft)))


def band_l2_norms(spec: GridSpec, multipliers: np.ndarray, ft: np.ndarray) -> np.ndarray:
    """The L^2 norm of `from_spectrum(spec, A * ft)` for every row A of a
    block of real even multipliers on the half grid, from the spectrum alone.

    Parseval: h^n sum_x |band(x)|^2 = sum_k A_k^2 |ft_k|^2 / L^n over the
    full grid.  A_k = A_-k, so each half-grid column but the first and the
    Nyquist one stands for the one at -k too: a full ft adds its square
    there to the one at k, and a half one, Hermitian, doubles it.  |ft| is
    divided by its maximum M before it is squared and M multiplies the
    roots, so the norms scale with ft exactly and no square overflows at
    any magnitude float64 holds.  The multipliers are a kernel's, a few
    units at most.  A band keeps full relative accuracy while its largest
    |A_k ft_k| exceeds 2^-460 M: the squares that underflow are then under
    2^-78 of its own, on grids of up to 2^24 points.
    """
    N = spec.points_per_axis
    w = np.abs(ft)
    M = float(w.max(initial=0.0))
    if M == 0.0:
        return np.zeros(len(multipliers))
    w /= M
    w *= w
    if _is_half(spec, ft):
        w[..., 1:N // 2] *= 2.0
    else:
        tail = _negated(spec, w[..., N - 1:N // 2:-1])
        w = w[..., :N // 2 + 1]
        w[..., 1:N // 2] += tail
    squares = np.square(multipliers).reshape(len(multipliers), -1) @ w.reshape(-1)
    return M * np.sqrt(squares / spec.box_length ** spec.dimension)


def band_spectrum(f: GridFunction) -> np.ndarray:
    """`spectrum(f)` in the layout of f's bands: the half layout for real
    samples (`GridFunction.is_real`), whose bands are real, else the full."""
    return spectrum_rows(f.spec, f.samples.real if f.is_real() else f.samples)


def spectrum(f: GridFunction) -> np.ndarray:
    """Continuous-FT samples at the grid frequencies (fftfreq layout)."""
    return spectrum_rows(f.spec, f.samples)


def from_spectrum(spec: GridSpec, ft: np.ndarray, tag: Optional[str] = None) -> GridFunction:
    """Inverse of `spectrum`."""
    return GridFunction(spec, from_spectrum_rows(spec, ft), tag)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Circular convolution with L^1-correct scaling h^n * sum f(x_i) g(x - x_i)."""
    same_grid(f, g)
    return from_spectrum(f.spec, spectrum(f) * spectrum(g))


def spectral_derivative(f: GridFunction, order: Union[int, Sequence[int]]) -> GridFunction:
    """Derivative via frequency-domain multiplication by (i*xi)^order.

    The caller is responsible for f being band-limited relative to the grid;
    otherwise the result rings.
    """
    if isinstance(order, (int, np.integer)):
        if f.spec.dimension != 1:
            raise ParameterError("2-D derivatives need a multi-index, e.g. (1, 0)")
        orders = (int(order),)
    else:
        orders = tuple(int(o) for o in order)
    if len(orders) != f.spec.dimension or any(o < 0 for o in orders):
        raise ParameterError(f"bad derivative multi-index {order}")
    ft = spectrum(f)
    for xi, o in zip(f.spec.freq_axes(), orders):
        ft = ft * (1j * xi) ** o
    return from_spectrum(f.spec, ft)


def integrate(f: GridFunction, weight: Optional[GridFunction] = None) -> float:
    """Rectangle rule h^n sum f*w; exact for grid-constant functions."""
    h = f.spec.spacing
    vals = f.samples
    if weight is not None:
        same_grid(f, weight)
        w = weight.samples.real
        if np.any(w < 0):
            raise ParameterError("weight has negative samples")
        vals = vals * w
    return float(np.real(np.sum(vals)) * h ** f.spec.dimension)


def _multi_indices(dimension: int, max_order: int):
    """Multi-indices b with |b| <= max_order, the last axis varying fastest."""
    return [b for b in np.ndindex(*(max_order + 1,) * dimension) if sum(b) <= max_order]


# -- dyadic cubes -------------------------------------------------------------


@dataclass(frozen=True)
class DyadicCube:
    """Q_{v,m} = 2^{-v}(m + [0,1)^n); side length exactly 2^{-v}."""

    level: int
    index: Tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError("cube level must be nonnegative")
        object.__setattr__(self, "index", tuple(int(i) for i in np.atleast_1d(self.index)))

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def corner(self) -> Tuple[float, ...]:
        return tuple(m * self.side for m in self.index)

    @property
    def center(self) -> Tuple[float, ...]:
        return tuple((m + 0.5) * self.side for m in self.index)


def cubes_per_axis(spec: GridSpec, level: int) -> int:
    """Number of level-`level` cubes along one axis of the box.

    Requires the cube lattice to align with the grid, i.e. 2^{-level} must be
    an integer multiple of h and L/2 an integer multiple of 2^{-level}.
    """
    side = 2.0 ** (-level)
    ratio = side / spec.spacing
    n_cubes = spec.box_length / side
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ParameterError(
            f"level {level} cubes (side {side}) do not align with grid spacing {spec.spacing}"
        )
    if abs(n_cubes - round(n_cubes)) > 1e-9:
        raise ParameterError(
            f"box length {spec.box_length} is not a multiple of the cube side {side}"
        )
    return int(round(n_cubes))


def finest_aligned_level(spec: GridSpec) -> int:
    """Largest V such that the cubes of every level 0..V align with the grid
    (-1 when level 0 already does not)."""
    level = -1
    while True:
        try:
            cubes_per_axis(spec, level + 1)
        except ParameterError:
            return level
        level += 1


def cube_mask(spec: GridSpec, cube: DyadicCube) -> np.ndarray:
    """Boolean mask of grid nodes inside the cube (sharp, no smoothing)."""
    sl = []
    n = cubes_per_axis(spec, cube.level)
    spc = spec.points_per_axis // n  # samples per cube per axis
    for m in cube.index:
        j = m + n // 2
        if not (0 <= j < n):
            raise ParameterError(f"cube {cube} lies outside the box")
        sl.append(slice(j * spc, (j + 1) * spc))
    mask = np.zeros(spec.shape, dtype=bool)
    mask[tuple(sl)] = True
    return mask


# -- import / export ----------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _csv_template(spec: GridSpec, real: bool) -> str:
    """The `write_csv` text of a function on spec with one `%r` for each
    value: every coordinate is formatted here, once per grid, and a real
    function's rows end in a fixed `0.0` im field."""
    n = spec.dimension
    tail = ",%r,0.0\r\n" if real else ",%r,%r\r\n"
    coords = spec.coords().reshape(-1, n).tolist()
    return ",".join(["x", "y"][:n] + ["re", "im"]) + "\r\n" + "".join(
        ",".join(map(repr, c)) + tail for c in coords)


def write_csv(f: GridFunction, path: str) -> None:
    """CSV columns: coordinate(s), re, im, with `repr` floats and CRLF line
    ends as `csv.writer` writes them.  The text around the values is one
    template per grid (`_csv_template`), so a call formats only f's values:
    the real parts alone when every imaginary part is +0.0 (a -0.0 must
    still be written as one)."""
    v = f.samples.reshape(-1)
    real = not v.imag.any() and not np.signbit(v.imag).any()
    values = v.real if real else v.view(np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_template(f.spec, real) % tuple(values.tolist()))


def read_csv(path: str, spec: GridSpec) -> GridFunction:
    """A `write_csv` file as a function on spec: the header `x[,y],re,im`,
    then one row of numbers per node, in raster order, each coordinate
    within 1e-9 h of its node.  A file that is not one is rejected with a
    `ParameterError` naming its first faulty row (counted from the first
    after the header) and, for a field that is not a number, its column; a
    file that is not UTF-8 text, by the offset of its first bad byte."""
    n = spec.dimension
    names = ["x", "y"][:n] + ["re", "im"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParameterError(f"CSV is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not rows:
        raise ParameterError(f"CSV is empty: no header {','.join(names)}")
    header, rows = rows[0], rows[1:]
    if header != names:
        raise ParameterError(f"CSV header is {','.join(header)!r}, not {','.join(names)!r} "
                             f"of a {n}-D grid")
    table = np.empty((len(rows), n + 2))
    for i, row in enumerate(rows):
        if len(row) != n + 2:
            raise ParameterError(f"CSV row {i + 1} has {len(row)} fields, not {n + 2}")
        for j, field in enumerate(row):
            try:
                table[i, j] = float(field)
            except ValueError:
                raise ParameterError(f"CSV row {i + 1}, column {names[j]}: {field!r} "
                                     f"is not a number") from None
    if len(table) != spec.size:
        raise ParameterError(f"CSV has {len(table)} rows, grid needs {spec.size}")
    nodes = spec.coords().reshape(-1, n)
    off = ~np.all(np.abs(table[:, :n] - nodes) <= 1e-9 * spec.spacing, axis=1)
    if off.any():
        i = int(np.argmax(off))
        at, node = (", ".join(map(repr, c[i, :n].tolist())) for c in (table, nodes))
        raise ParameterError(f"CSV row {i + 1} lies at ({at}), not at grid node ({node})")
    # the (re, im) columns as complex samples, bit for bit
    return GridFunction(spec, np.ascontiguousarray(table[:, n:]).view(np.complex128))
