"""Uniform periodic grids and the spectral operations everything else runs on.

The periodic box [-L/2, L/2)^n stands in for R^n.  All convolutions are
circular with an h^n factor so that discrete results approximate the
continuous integrals; `spectrum`/`from_spectrum` expose samples of the
continuous Fourier transform (non-unitary, angular frequency) at the grid
frequencies 2*pi*k/L.
"""

from __future__ import annotations

import csv
import functools
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterError

MAGIC = b"VBGF"
FORMAT_VERSION = 1


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
        if not (self.box_length > 0):
            raise ParameterError(f"box_length must be positive, got {self.box_length}")
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


def _phase(spec: GridSpec) -> np.ndarray:
    return _phase_of(spec.points_per_axis, spec.dimension)


def _phase_pairs(spec: GridSpec) -> np.ndarray:
    return _phase_pairs_of(spec.points_per_axis, spec.dimension)


@functools.lru_cache(maxsize=8)
def _phase_of(N: int, dimension: int) -> np.ndarray:
    """The (-1)^j sign pattern of an N^dimension grid, built once per grid
    shape and shared read-only."""
    p = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    out = functools.reduce(np.multiply.outer, (p,) * dimension)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _phase_pairs_of(N: int, dimension: int) -> np.ndarray:
    """`_phase_of` with every sign repeated along the last axis, so that it
    scales the float64 view of a complex grid array, (re, im) pair by pair;
    built once per grid shape and shared read-only."""
    out = np.repeat(_phase_of(N, dimension), 2, axis=-1)
    out.flags.writeable = False
    return out


def _grid_axes(spec: GridSpec) -> Tuple[int, ...]:
    return tuple(range(-spec.dimension, 0))


# A real scalar or sign scales both parts of a complex sample alike, so the
# scalings below run on the float64 (re, im) views of the complex arrays: the
# bits of the complex product with a zero imaginary part, without its cross
# terms (up to the sign of a product that is zero).


def spectrum_rows(spec: GridSpec, samples: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """`spectrum` of every grid array stacked along the leading axes of
    `samples`: one batched transform, row for row bit-identical to the
    single call (a scalar times the phase times the FFT).  `out`, a
    C-contiguous complex array of the same shape, may be `samples` itself."""
    out = np.fft.fftn(samples, axes=_grid_axes(spec), out=out)
    pairs = out.view(np.float64)
    pairs *= (spec.spacing ** spec.dimension) * _phase_pairs(spec)
    return out


def from_spectrum_rows(spec: GridSpec, ft: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of `spectrum_rows`: (ft * phase), transformed in place, then
    divided by h^n, so each row equals `from_spectrum(spec, ft[j]).samples`.
    `out`, a C-contiguous complex array of the same shape, may be `ft`
    itself."""
    ft = np.require(ft, np.complex128, "C")
    if out is None:
        out = np.empty(ft.shape, dtype=np.complex128)
    pairs = out.view(np.float64)
    np.multiply(ft.view(np.float64), _phase_pairs(spec), out=pairs)
    np.fft.ifftn(out, axes=_grid_axes(spec), out=out)
    # numpy divides a complex array by a real scalar as a product with the
    # reciprocal: the same bits
    pairs *= 1.0 / spec.spacing ** spec.dimension
    return out


def band_rows(spec: GridSpec, multipliers: np.ndarray, ft: np.ndarray) -> np.ndarray:
    """`from_spectrum(spec, A * ft).samples` for every row A of a block of
    multipliers, in one complex buffer: (A * ft) * phase, then the batched
    inverse transform in place."""
    out = multipliers * ft
    return from_spectrum_rows(spec, out, out=out)


def spectrum(f: GridFunction) -> np.ndarray:
    """Continuous-FT samples at the grid frequencies (fftfreq layout)."""
    return spectrum_rows(f.spec, f.samples)


def from_spectrum(spec: GridSpec, ft: np.ndarray, tag: Optional[str] = None) -> GridFunction:
    """Inverse of `spectrum`."""
    return GridFunction(spec, from_spectrum_rows(spec, ft), tag)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Circular convolution with L^1-correct scaling h^n * sum f(x_i) g(x - x_i)."""
    same_grid(f, g)
    h = f.spec.spacing
    # the (-1)^j factor is a half-box roll: offsets i-j index the centered box,
    # whose origin sits at sample N/2, not sample 0.
    prod = np.fft.fftn(f.samples) * np.fft.fftn(g.samples) * _phase(f.spec)
    out = np.fft.ifftn(prod) * h ** f.spec.dimension
    return GridFunction(f.spec, out, tag=None)


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


def cubes_in_box(spec: GridSpec, level: int) -> Iterator[DyadicCube]:
    """Iterate the dyadic cubes at `level` that tile the box."""
    n = cubes_per_axis(spec, level)
    for j in np.ndindex(*(n,) * spec.dimension):
        yield DyadicCube(level, tuple(jj - n // 2 for jj in j))


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


def write_csv(f: GridFunction, path: str) -> None:
    """CSV columns: coordinate(s), re, im, with `repr` floats and CRLF line
    ends as `csv.writer` writes them, formatted as one block."""
    n = f.spec.dimension
    v = f.samples.reshape(-1)
    table = np.column_stack([f.spec.coords().reshape(-1, n), v.real, v.imag])
    row = ",".join(["%r"] * (n + 2)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["x", "y"][:n] + ["re", "im"]) + "\r\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def read_csv(path: str, spec: GridSpec) -> GridFunction:
    vals = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        ncoord = len(header) - 2
        if ncoord != spec.dimension:
            raise ParameterError(f"CSV has {ncoord} coordinate columns, grid is {spec.dimension}-D")
        for row in r:
            vals.append(complex(float(row[-2]), float(row[-1])))
    arr = np.array(vals, dtype=np.complex128)
    if arr.size != spec.size:
        raise ParameterError(f"CSV has {arr.size} rows, grid needs {spec.size}")
    return GridFunction(spec, arr.reshape(spec.shape))


def write_raw(f: GridFunction, path: str) -> None:
    """Raw little-endian float64 (re, im) pairs after a small header."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, f.spec.dimension, f.spec.points_per_axis))
        fh.write(struct.pack("<d", f.spec.box_length))
        flat = f.samples.reshape(-1)
        buf = np.empty(2 * flat.size, dtype="<f8")
        buf[0::2] = flat.real
        buf[1::2] = flat.imag
        fh.write(buf.tobytes())


def read_raw(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ParameterError(f"bad magic {magic!r}")
        version, dim, N = struct.unpack("<III", fh.read(12))
        if version != FORMAT_VERSION:
            raise ParameterError(f"unsupported format version {version}")
        (L,) = struct.unpack("<d", fh.read(8))
        spec = make_grid(dim, L, N)
        buf = np.frombuffer(fh.read(), dtype="<f8")
        if buf.size != 2 * spec.size:
            raise ParameterError("truncated raw grid file")
        arr = buf[0::2] + 1j * buf[1::2]
        return GridFunction(spec, arr.reshape(spec.shape))
