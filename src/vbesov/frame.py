"""Continuous resolutions of unity, local-mean kernel pairs, and eta kernels.

The resolution is built from a nonnegative radial bump b supported in the
annulus 1/2 < |xi| < 2, parameterized in z = log2|xi| so that dilation is a
shift:
    Fphi(xi) = b(|xi|) / c_b,   c_b = int_0^inf b(u) du/u,
    FPhi(xi) = int_{|xi|}^inf Fphi(u) du/u   (= 1 at xi = 0),
which gives FPhi(xi) + int_0^1 Fphi(t xi) dt/t = 1 for every xi.

Every multiplier here is real and radial, so both kernels evaluate it once
per point of the half grid (`GridSpec.half_shape`, the `rfftn` layout):
`multipliers(ts)`, `level0` and the frame's `level0_analysis` are half-grid
arrays.  The norm profiles use them as they are; the full layout, which the
atoms, `synthesize_Phi`, `phi_t_spectrum` and `level0_transform` need, is
their `grid.mirror`, bit for bit the evaluation on the full grid.

The bump is the polynomial (1 - z^2)^order.  Per-octave Gauss-Legendre then
integrates the profile exactly on every panel interior to the support, the
domain cut at t = 1 lands on a panel edge, and the only quadrature error of
the reproduction identity comes from the two panels containing the support
joints - measured below 1e-7 at the default order and ladder density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConstructionError, HypothesisViolationError, ParameterError
from .exponents import ExponentField
from .grid import GridFunction, GridSpec, _multi_indices, from_spectrum, mirror, spectrum
from .luxemburg import ScaleLadder

RESIDUAL_TOL = 1e-6
SUPPORT_LEAK_TOL = 1e-12


@dataclass(frozen=True)
class BumpParams:
    """Radial profile b(z) = (1 - z^2)^order in z = log2|xi|.

    Low orders concentrate the kernel in space (smaller wraparound on the
    box); high orders smooth the support joints (smaller ladder-quadrature
    residual).  Order 6 at 12 nodes per octave keeps the identity residual
    near 2e-7 with the best spatial concentration of the passing shapes.
    """

    order: int = 6

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 2):
            raise ParameterError("bump order must be an integer >= 2")


def _even_polyval(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """`npoly.polyval(z, coef)` for finite z and a nonzero constant term, by
    the same Horner steps in place, with the adds of zero coefficients left
    out: they can only flip the sign of a zero that the next nonzero
    coefficient's add erases, so the bits are polyval's."""
    acc = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        acc *= z
        if c:
            acc += c
    return acc


@dataclass(frozen=True)
class RadialProfile:
    """The normalized bump with closed-form tail integrals.

    All evaluations are exact polynomial evaluations in z = log2 s; nothing
    here depends on the ladder, so construction accuracy is decoupled from
    quadrature accuracy.
    """

    params: BumpParams
    coef: np.ndarray        # polynomial coefficients of b(z)
    integ: np.ndarray       # antiderivative of b
    integ2: np.ndarray      # antiderivative of b^2
    c_b: float              # int_0^inf b du/u = ln2 * int b(z) dz
    c2: float               # int_0^inf Fphi(u)^2 du/u

    def _z(self, s: np.ndarray) -> np.ndarray:
        pos = s > 0
        return np.where(pos, np.log2(np.where(pos, s, 1.0)), -2.0)

    def _tail(self, z: np.ndarray, integ: np.ndarray) -> np.ndarray:
        zc = np.clip(z, -1.0, 1.0)
        return npoly.polyval(1.0, integ) - npoly.polyval(zc, integ)

    def phi_hat(self, s) -> np.ndarray:
        """Fphi at radii s (vectorized)."""
        s = np.asarray(s, dtype=float)
        z = self._z(s)
        inside = np.abs(z) < 1.0
        out = np.zeros_like(s)
        out[inside] = _even_polyval(z[inside], self.coef) / self.c_b
        return out

    def Phi_hat(self, s) -> np.ndarray:
        """FPhi at radii s; exactly 1 for s <= 1/2 (including s = 0)."""
        s = np.asarray(s, dtype=float)
        z = self._z(s)
        tail = self._tail(z, self.integ) * math.log(2.0) / self.c_b
        return np.where(z <= -1.0, 1.0, np.where(z >= 1.0, 0.0, tail))

    def psi_hat(self, s) -> np.ndarray:
        """Analysis kernel Fpsi = Fphi / c2, so int Fpsi Fphi du/u = 1."""
        return self.phi_hat(s) / self.c2

    def Psi_hat(self, s) -> np.ndarray:
        """Analysis level-0 kernel FPsi, defined by FPsi FPhi = tail of Fpsi Fphi."""
        s = np.asarray(s, dtype=float)
        z = self._z(s)
        tail2 = self._tail(z, self.integ2)
        tail1 = self._tail(z, self.integ)
        denom = self.c2 * self.c_b * tail1
        ratio = np.where(denom > 1e-300, tail2 / np.where(denom > 1e-300, denom, 1.0), 0.0)
        return np.where(z <= -1.0, 1.0, np.where(z >= 1.0, 0.0, ratio))


def build_radial_profile(params: BumpParams) -> RadialProfile:
    coef = npoly.polypow([1.0, 0.0, -1.0], params.order)
    integ = npoly.polyint(coef)
    integ2 = npoly.polyint(npoly.polymul(coef, coef))
    ln2 = math.log(2.0)
    T = float(npoly.polyval(1.0, integ) - npoly.polyval(-1.0, integ))
    T2 = float(npoly.polyval(1.0, integ2) - npoly.polyval(-1.0, integ2))
    c_b = ln2 * T
    c2 = ln2 * T2 / c_b ** 2
    return RadialProfile(params, np.asarray(coef), np.asarray(integ),
                         np.asarray(integ2), c_b, c2)


@dataclass(frozen=True)
class CalderonFrame:
    """Spectral data of a resolution of unity plus its scale ladder."""

    spec: GridSpec
    profile: RadialProfile
    ladder: ScaleLadder
    level0: np.ndarray             # the level-0 multiplier FPhi on the half grid
    level0_analysis: np.ndarray    # the level-0 analysis multiplier FPsi on the half grid
    annulus: Tuple[float, float]   # support of the Fphi profile
    residual: float                # measured identity residual on the band
    resolved_xi_max: float
    radius_order: np.ndarray       # stable argsort of the flattened half-grid |xi|
    radius_sorted: np.ndarray      # the flattened half-grid |xi| in that order

    def multipliers(self, ts) -> np.ndarray:
        """Fphi(t xi) on the half grid for every t in ts, one row per t: a
        (len(ts), *half_shape) array from one `phi_hat` call over the
        annulus slices; every sample outside a row's slice is exactly 0."""
        rows, idx, vals = _annulus_values(self.profile, self.radius_sorted, ts)
        out = np.zeros((np.size(ts), self.radius_order.size))
        out[rows, self.radius_order[idx]] = vals
        return out.reshape(out.shape[:1] + self.spec.half_shape)

    def phi_t_spectrum(self, t: float) -> np.ndarray:
        """Fphi(t xi) at the full grid's frequencies: one row of
        `multipliers`, mirrored."""
        return mirror(self.spec, self.multipliers([t])[0])

    def level0_transform(self, f: GridFunction) -> GridFunction:
        """Phi * f."""
        return from_spectrum(f.spec, mirror(f.spec, self.level0) * spectrum(f))

    def check_alpha(self, alpha: ExponentField) -> None:
        """Every alpha is admissible: Fphi vanishes near the origin to every order."""

    def echo(self) -> dict:
        ladder = self.ladder
        return {"frame": {"profile_order": self.profile.params.order,
                          "octaves": ladder.octaves, "nodes_per_octave": ladder.nodes_per_octave}}


def _annulus_values(profile: RadialProfile, radii: np.ndarray, ts):
    """Fphi(t s) for every t in ts on the slice of the ascending radii s
    where t*s can lie in the annulus 1/2 < t|xi| < 2, from one `phi_hat`
    call.  The slices are supersets, padded against the rounding of t*s, and
    Fphi vanishes exactly outside them.  Returns, per value, its node (the
    position in ts) and its radius index, node after node, plus the values."""
    ts = np.asarray(ts, dtype=float)
    lo = np.searchsorted(radii, 0.5 * (1 - 1e-9) / ts)
    hi = np.searchsorted(radii, 2.0 * (1 + 1e-9) / ts)
    counts = hi - lo
    rows = np.repeat(np.arange(ts.size), counts)
    idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, idx, profile.phi_hat(ts[rows] * radii[idx])


def identity_residual(profile: RadialProfile, ladder: ScaleLadder,
                      xi_max: float, n_samples: int = 6000) -> float:
    """max over the band of |FPhi(xi) + sum_k Fphi(t_k xi) w_k - 1|, one
    `phi_hat` call per octave and the node terms added node after node."""
    s = np.geomspace(xi_max * 1e-4, xi_max, n_samples)
    total = profile.Phi_hat(s)
    for v in range(1, ladder.octaves + 1):
        sl = ladder.octave_slice(v)
        rows, idx, vals = _annulus_values(profile, s, ladder.t[sl])
        np.add.at(total, idx, ladder.weights[sl][rows] * vals)
    return float(np.max(np.abs(total - 1.0)))


def build_resolution_of_unity(spec: GridSpec, ladder: ScaleLadder,
                              profile_params: BumpParams = BumpParams()) -> CalderonFrame:
    """Construct and certify a resolution of unity on the grid."""
    if ladder.nodes_per_octave < 2:
        raise ParameterError("ladder must resolve the annulus: nodes_per_octave >= 2")
    profile = build_radial_profile(profile_params)

    # the polynomial bump vanishes identically at |z| >= 1, so annulus leakage
    # can only come from evaluation error at the support edges
    leak = max(abs(float(profile.phi_hat(np.array([0.5]))[0])),
               abs(float(profile.phi_hat(np.array([2.0]))[0])))
    if leak > SUPPORT_LEAK_TOL:
        raise ConstructionError(f"profile leaks {leak:g} outside the annulus")

    resolved = 0.9 * min(spec.nyquist, 2.0 ** (ladder.octaves - 1))
    res = identity_residual(profile, ladder, resolved)
    if res > RESIDUAL_TOL:
        raise ConstructionError(
            f"frame identity residual {res:.3e} exceeds {RESIDUAL_TOL:g} on the "
            f"resolved band |xi| <= {resolved:.3g}; increase nodes_per_octave"
        )
    radius = spec.half_freq_radius()
    flat = radius.reshape(-1)
    order = np.argsort(flat, kind="stable")
    return CalderonFrame(spec, profile, ladder, profile.Phi_hat(radius),
                         profile.Psi_hat(radius), (0.5, 2.0), res, resolved, order, flat[order])


def synthesize_phi_t(frame: CalderonFrame, t: float) -> GridFunction:
    """Spatial phi_t = t^{-n} phi(./t) via the inverse transform of Fphi(t xi)."""
    if not (0 < t <= 1):
        raise ParameterError(f"t must lie in (0, 1], got {t}")
    return from_spectrum(frame.spec, frame.phi_t_spectrum(t), tag=f"phi_t(t={t:g})")


def synthesize_Phi(frame: CalderonFrame) -> GridFunction:
    return from_spectrum(frame.spec, mirror(frame.spec, frame.level0), tag="Phi")


# -- local means ---------------------------------------------------------------


def _k0_hat(s, epsilon: float) -> np.ndarray:
    """Fk0(s) = exp(-s^2 / (2 eps^2)), formed in one buffer."""
    out = np.square(np.asarray(s, dtype=float))
    np.negative(out, out=out)
    out /= 2 * epsilon ** 2
    return np.exp(out, out=out)


def _k_hat(s, epsilon: float, m: int) -> np.ndarray:
    """Fk(s) = s^{2m} exp(-s^2 / (2 eps^2)), peak-normalized to 1 (Fk0 at m = 0)."""
    if m == 0:
        return _k0_hat(s, epsilon)
    s = np.asarray(s, dtype=float)
    peak = (2 * m) ** m * epsilon ** (2 * m) * math.exp(-m)
    out = _k0_hat(s, epsilon)
    out *= s ** (2 * m)
    out /= peak
    return out


@dataclass(frozen=True)
class LocalMeanPair:
    """Kernels (k0, k) with Tauberian lower bounds and S vanishing moments.

    Fourier-side Gaussian family: Fk0(xi) = exp(-|xi|^2/(2 eps^2)) and
    Fk(xi) proportional to |xi|^{2m} exp(-|xi|^2/(2 eps^2)) with 2m >= S+1,
    peak-normalized to 1.  Fk vanishes to order 2m at the origin, so all
    moments of k through order 2m-1 vanish; spatially both kernels decay
    super-polynomially.
    """

    spec: GridSpec
    ladder: ScaleLadder
    radius: np.ndarray      # |xi| on the half grid
    level0: np.ndarray      # the level-0 multiplier Fk0 on the half grid
    k: GridFunction
    S: int
    epsilon: float
    m: int
    certification: dict

    def k0_spectrum_at(self, s) -> np.ndarray:
        return _k0_hat(s, self.epsilon)

    def k_spectrum_at(self, s) -> np.ndarray:
        return _k_hat(s, self.epsilon, self.m)

    def multipliers(self, ts) -> np.ndarray:
        """Fk(t xi) on the half grid for every t in ts, one row per t."""
        return self.k_spectrum_at(np.multiply.outer(ts, self.radius))

    def check_alpha(self, alpha: ExponentField) -> None:
        """The local-means characterization needs alpha+ < S+1."""
        if alpha.cached_max >= self.S + 1:
            raise HypothesisViolationError(
                f"alpha+ = {alpha.cached_max:g} must be below S+1 = {self.S + 1} "
                "for the local-means characterization")

    def echo(self) -> dict:
        return {"kernel": {"S": self.S, "m": self.m, "epsilon": self.epsilon}}


def build_local_mean_pair(spec: GridSpec, ladder: ScaleLadder, S: int,
                          epsilon: float = 1.0) -> LocalMeanPair:
    """Gaussian-family local means with 2m >= S+1 vanishing moments on k."""
    if S < -1:
        raise ParameterError(f"moment order S must be >= -1, got {S}")
    if not (0 < 2 * epsilon <= 0.9 * spec.nyquist):
        raise ParameterError(
            f"epsilon {epsilon} incompatible with grid Nyquist {spec.nyquist:.3g}")
    m = max(0, math.ceil((S + 1) / 2))

    sr = spec.half_freq_radius()
    k = from_spectrum(spec, mirror(spec, _k_hat(sr, epsilon, m)), tag="k")

    # certification: Tauberian lower bounds on dense radial samples + moments
    ball = np.linspace(0.0, 2 * epsilon * (1 - 1e-9), 512)
    annulus = np.linspace(epsilon / 2, 2 * epsilon, 512)
    tauberian_k0 = float(_k0_hat(ball, epsilon).min())
    tauberian_k = float(_k_hat(annulus, epsilon, m).min())

    h = spec.spacing ** spec.dimension
    moments = {}
    for beta in _multi_indices(spec.dimension, max(S, 0) + 1):
        mono = math.prod(x ** b for x, b in zip(spec.axes(), beta))
        moments[",".join(map(str, beta))] = float(np.real(np.sum(mono * k.samples) * h))

    cert = {
        "tauberian_k0_min": tauberian_k0,
        "tauberian_k_min": tauberian_k,
        "moments_k": moments,
    }
    where = (f"{spec.dimension}-D grid, N = {spec.points_per_axis}, "
             f"L = {spec.box_length:g}, epsilon = {epsilon:g}")
    if tauberian_k0 <= 0 or tauberian_k <= 0:
        raise ConstructionError(f"Tauberian certification failed on the {where}: {cert}")
    for key, mom in moments.items():
        order = sum(int(p) for p in key.split(","))
        if order <= S and abs(mom) > 1e-8:
            # the spectrum cut at Nyquist wants Nyquist/epsilon large, the
            # periodic wrap of k wants epsilon*L/2 large; their product is pi*N/2
            raise ConstructionError(
                f"moment {key} = {mom:g} exceeds 1e-8 on the {where}; raise N, "
                f"or trade epsilon against L: Nyquist/epsilon and epsilon*L/2 "
                f"must both be large (README: the 2-D sweep)")

    return LocalMeanPair(spec, ladder, sr, _k0_hat(sr, epsilon), k, S, epsilon, m, cert)


# -- eta kernels ---------------------------------------------------------------


def eta_kernel(spec: GridSpec, t: float, m: float) -> GridFunction:
    """eta_{t,m}(x) = t^{-n} (1 + |x|/t)^{-m} sampled on the centered box.

    Integrable regime only: m > n.  The discrete L1 mass (wraparound included)
    is available as integrate(abs(.)); in 1-D it approaches 2/(m-1) as the box
    grows.
    """
    if m <= spec.dimension:
        raise ParameterError(f"eta kernel needs m > n = {spec.dimension}, got m = {m}")
    if not (t > 0):
        raise ParameterError(f"t must be positive, got {t}")
    r = spec.radius()
    vals = t ** (-spec.dimension) * (1.0 + r / t) ** (-float(m))
    return GridFunction(spec, vals, tag=f"eta(t={t:g},m={m:g})")
