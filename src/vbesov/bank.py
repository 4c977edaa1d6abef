"""Deterministic test corpus: grid functions and exponent fields.

Everything is reproducible from the seed; band-limited noise uses a seeded
generator with Hermitian-symmetric spectra so members stay real-valued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .errors import ParameterError
from .exponents import ExponentField, field_from_callable, q_field_from_callable
from .grid import GridFunction, GridSpec, from_callable, make_grid
from .luxemburg import ScaleLadder, make_ladder

DEFAULT_SEED = 7
# 8 terms keep every component (max |xi| = 2^8 omega_0 ~ 100) inside the band
# fully covered by the default 8-octave ladder, so norms of bank members are
# discretization-converged at the default resolution
WEIERSTRASS_TERMS = 8


def weierstrass(x: np.ndarray, s: float, omega0: float,
                terms: int = WEIERSTRASS_TERMS) -> np.ndarray:
    acc = np.zeros_like(x)
    for v in range(1, terms + 1):
        acc = acc + 2.0 ** (-v * s) * np.cos(2.0 ** v * omega0 * x)
    return acc


def _band_noise(spec: GridSpec, rng: np.random.Generator, xi_max: float) -> np.ndarray:
    """Real band-limited noise: random smooth spectrum supported |xi| <= xi_max."""
    freqs = spec.freq_radius()
    mag = np.exp(-(freqs / xi_max) ** 2) * (freqs <= xi_max)
    phase = rng.uniform(0, 2 * np.pi, size=freqs.shape)
    amp = rng.normal(size=freqs.shape)
    # the real part of the inverse transform is the Hermitian projection
    out = np.fft.ifftn(mag * amp * np.exp(1j * phase)).real
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


@dataclass(frozen=True)
class FunctionBank:
    spec: GridSpec
    ladder: ScaleLadder
    seed: int
    members: Dict[str, GridFunction]
    exponents: Dict[str, ExponentField]

    def names(self) -> List[str]:
        return sorted(self.members)

    def __getitem__(self, name: str) -> GridFunction:
        return self.members[name]


# name -> builder(x, omega0) of the deterministic members
_SMOOTH: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "gauss_w05": lambda x, w0: np.exp(-x ** 2 / (2 * 0.5 ** 2)),
    "gauss_w1": lambda x, w0: np.exp(-x ** 2 / 2),
    "gauss_w2": lambda x, w0: np.exp(-x ** 2 / (2 * 2.0 ** 2)),
    "modgauss_f4": lambda x, w0: np.cos(4 * x) * np.exp(-x ** 2 / 2),
    "modgauss_f16": lambda x, w0: np.cos(16 * x) * np.exp(-x ** 2 / 2),
    "modgauss_f4_w05": lambda x, w0: np.cos(4 * x) * np.exp(-x ** 2 / (2 * 0.5 ** 2)),
    "weier_s03": lambda x, w0: weierstrass(x, 0.3, w0),
    "weier_s05": lambda x, w0: weierstrass(x, 0.5, w0),
    "weier_s12": lambda x, w0: weierstrass(x, 1.2, w0),
    "smoothstep_w1": lambda x, w0: 0.5 * (np.tanh((x + 1) / 0.25) - np.tanh((x - 1) / 0.25)),
    "smoothstep_w2": lambda x, w0: 0.5 * (np.tanh((x + 2) / 0.25) - np.tanh((x - 2) / 0.25)),
    "smoothstep_shift": lambda x, w0: 0.5 * (np.tanh((x - 2) / 0.25) - np.tanh((x - 4) / 0.25)),
    "tone_k8": lambda x, w0: np.cos(8 * w0 * x),
    "tone_k40": lambda x, w0: np.sin(40 * w0 * x),
    "dgauss": lambda x, w0: -x * np.exp(-x ** 2 / 2),
    "gausspair": lambda x, w0: np.exp(-(x - 2) ** 2 / 2) + np.exp(-(x + 2) ** 2 / 2),
}
# name -> xi_max of the band-noise members, in the order they draw from the
# seeded generator
_NOISE: Dict[str, float] = {"bandnoise_a": 32.0, "bandnoise_b": 32.0,
                            "bandnoise_c": 64.0, "bandnoise_d": 64.0}
MEMBER_NAMES = sorted([*_SMOOTH, *_NOISE])


def _check_spec(spec: GridSpec) -> None:
    if spec.dimension != 1:
        raise ParameterError("the bank is 1-D; a 2-D run needs a CSV member (member = f.csv)")


def _smooth_member(spec: GridSpec, name: str) -> GridFunction:
    omega0 = 2 * np.pi / spec.box_length
    return from_callable(spec, lambda x: _SMOOTH[name](x, omega0), tag=name)


def make_member(spec: GridSpec, name: str, seed: int = DEFAULT_SEED) -> GridFunction:
    """One bank member, bit-identical to `make_bank(spec, ..., seed)[name]`;
    the band-noise members before it replay their draws."""
    _check_spec(spec)
    if name in _SMOOTH:
        return _smooth_member(spec, name)
    if name not in _NOISE:
        raise ParameterError(f"unknown bank member {name!r}; "
                             f"known: {', '.join(MEMBER_NAMES)}")
    rng = np.random.default_rng(seed)
    for noise, xi_max in _NOISE.items():
        samples = _band_noise(spec, rng, xi_max)
        if noise == name:
            return GridFunction(spec, samples, tag=name)


def make_bank(spec: GridSpec = None, ladder: ScaleLadder = None,
              seed: int = DEFAULT_SEED) -> FunctionBank:
    """The seeded 20-member function bank plus the exponent-field bank."""
    if spec is None:
        spec = make_grid(1, 16.0, 4096)
    if ladder is None:
        ladder = make_ladder()
    _check_spec(spec)
    rng = np.random.default_rng(seed)
    L = spec.box_length
    members = {name: _smooth_member(spec, name) for name in _SMOOTH}
    for name, xi_max in _NOISE.items():
        members[name] = GridFunction(spec, _band_noise(spec, rng, xi_max), tag=name)

    exponents: Dict[str, ExponentField] = {
        "p_const2": field_from_callable(spec, lambda x: 2.0 + 0 * x, "p", 2.0),
        "p_const4": field_from_callable(spec, lambda x: 4.0 + 0 * x, "p", 4.0),
        "p_sin": field_from_callable(spec, lambda x: 3.0 + np.sin(2 * np.pi * x / L), "p", 3.0),
        "p_sin2": field_from_callable(spec, lambda x: 2.0 + np.sin(2 * np.pi * x / L) ** 2, "p", 2.0),
        "alpha_const0": field_from_callable(spec, lambda x: 0.0 * x, "alpha", 0.0),
        "alpha_const03": field_from_callable(spec, lambda x: 0.3 + 0 * x, "alpha", 0.3),
        "alpha_const05": field_from_callable(spec, lambda x: 0.5 + 0 * x, "alpha", 0.5),
        "alpha_const12": field_from_callable(spec, lambda x: 1.2 + 0 * x, "alpha", 1.2),
        "alpha_signchange": field_from_callable(
            spec, lambda x: 0.3 + 0.6 * np.sin(2 * np.pi * x / L), "alpha", 0.3),
        "q_const2": q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0),
        "q_const3": q_field_from_callable(ladder.t, lambda t: 3.0 + 0 * t, 3.0),
        "q_logdecay": q_field_from_callable(
            ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0),
        "q_logdecay3": q_field_from_callable(
            ladder.t, lambda t: 3.0 + 1.0 / np.log(np.e + 1.0 / t), 3.0),
    }
    return FunctionBank(spec, ladder, seed, members, exponents)
