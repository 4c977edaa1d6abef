"""Numerical verification of the convolution, modular, and embedding estimates.

Every check samples configurations, computes both sides of an inequality,
and reports the minimal admissible constant per configuration.  "Verified"
means: the constants are finite, stable under refinement, and the designed
hypothesis-violation runs visibly degrade.  Sample budgets are fixed
constants below so the whole suite is deterministic under a seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .atoms import validate_atom
from .bank import FunctionBank, make_bank
from .besov import besov_norm, local_mean_norm, lp_profile
from .errors import ParameterError
from .exponents import (field_from_callable, make_exponent_field,
                        reciprocal_constants)
from .frame import (BumpParams, build_local_mean_pair,
                    build_resolution_of_unity, eta_kernel)
from .grid import (GridFunction, GridSpec, convolve, cubes_per_axis,
                   from_callable, from_spectrum, integrate, make_grid,
                   spectral_derivative, spectrum)
from .luxemburg import (ScaleLadder, mixed_core, octave_block_norm,
                        solve_luxemburg, t_norm)

HUGE = 1e12  # constants above this count as "no finite constant"


@dataclass
class CheckReport:
    check_id: str
    seed: int
    configurations: List[dict]
    constants: Dict[str, float]
    violations: List[dict]
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "seed": self.seed,
            "configurations": self.configurations,
            "constants": self.constants,
            "violations": self.violations,
            "passed": self.passed,
            "runtime_s": round(self.runtime_s, 3),
            "details": self.details,
        }


def _finite(constants: Dict[str, float]) -> List[dict]:
    return [{"config": k, "constant": v} for k, v in constants.items()
            if not (np.isfinite(v) and v < HUGE)]


def _stability(base: float, refined: float) -> float:
    if base == 0 and refined == 0:
        return 1.0
    return max(base, refined) / max(min(base, refined), 1e-300)


# ---------------------------------------------------------------------------
# pointwise shift estimate (moving t^-alpha(x) across the eta kernel)
# ---------------------------------------------------------------------------


def check_pointwise_shift(bank: Optional[FunctionBank] = None, m: float = 4.0,
                          R: Optional[float] = None, seed: int = 7,
                          x_stride: int = 16) -> CheckReport:
    """t^{-a(x)} eta_{t,m+R}(x-y) <= c t^{-a(y)} eta_{t,m}(x-y) for R >= clog(a).

    Also runs the origin variant and the designed R = 0 failure, whose
    constant must grow across the ladder.
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec, ladder = bank.spec, bank.ladder
    alpha = bank.exponents["alpha_signchange"]
    alpha_c = bank.exponents["alpha_const05"]
    if R is None:
        R = 2.0 * alpha.clog_local
    x = spec.axis_coords()
    xs = x[::x_stride]
    av_s = alpha.grid_values()[::x_stride]

    def max_ratio(afield_vals, a0_vals, R_order, ts):
        # ratio_t(x,y) = t^{a(y)-a(x)} (1 + |x-y|/t)^{-R}
        worst_per_t = np.empty(len(ts))
        d = np.abs(xs[:, None] - xs[None, :])
        dexp = a0_vals[None, :] - afield_vals[:, None]  # a(y) - a(x), x rows
        for i, t in enumerate(ts):
            ratio = t ** (-dexp) * (1.0 + d / t) ** (-R_order)
            worst_per_t[i] = ratio.max()
        return worst_per_t

    constants: Dict[str, float] = {}
    ts = ladder.t
    w_const = max_ratio(av_s * 0 + 0.5, av_s * 0 + 0.5, 0.0, ts)
    constants["alpha_const_R0"] = float(w_const.max())
    w_var = max_ratio(av_s, av_s, R, ts)
    constants["alpha_signchange_R2clog"] = float(w_var.max())
    w_sharp = max_ratio(av_s, av_s, alpha.clog_local, ts)
    constants["alpha_signchange_Rclog"] = float(w_sharp.max())

    # origin variant: y = 0, a(0) fixed
    i0 = int(np.argmin(np.abs(x)))
    a0 = float(alpha.grid_values()[i0])
    worst = 0.0
    for t in ts:
        ratio = t ** (a0 - av_s) * (1.0 + np.abs(xs) / t) ** (-R)
        worst = max(worst, float(ratio.max()))
    constants["origin_variant"] = worst

    # designed failure: R = 0, nonconstant alpha -> per-t constant diverges
    w_fail = max_ratio(av_s, av_s, 0.0, ts)
    growth = float(w_fail.max() / max(w_fail.min(), 1e-300))

    # refinement: halve the stride
    xs2 = x[:: max(1, x_stride // 2)]
    av2 = alpha.grid_values()[:: max(1, x_stride // 2)]
    d2 = np.abs(xs2[:, None] - xs2[None, :])
    dexp2 = av2[None, :] - av2[:, None]
    refined = 0.0
    for t in ts:
        refined = max(refined, float((t ** (-dexp2) * (1 + d2 / t) ** (-R)).max()))

    passed = (abs(constants["alpha_const_R0"] - 1.0) <= 1e-9
              and all(np.isfinite(v) and v < HUGE for v in constants.values())
              and growth > 10.0
              and _stability(constants["alpha_signchange_R2clog"], refined) <= 1.25)
    return CheckReport(
        "pointwise-shift", seed,
        [{"m": m, "R": R, "clog_alpha": alpha.clog_local, "x_stride": x_stride}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"R0_growth_across_ladder": growth,
                 "refined_constant": refined,
                 "per_t_constants_R0": {"t_max": float(w_fail[0]), "t_min": float(w_fail[-1])}},
    )


# ---------------------------------------------------------------------------
# subconvolution (r-trick) estimate
# ---------------------------------------------------------------------------


def check_subconvolution(bank: Optional[FunctionBank] = None, m: float = 4.0,
                         seed: int = 7,
                         scales: Sequence[int] = (4, 16, 64)) -> CheckReport:
    """|theta_N * omega_N * g| <= c (eta_{N,m} * |omega_N * g|^r)^{1/r}.

    omega is band-limited (spectrum inside the unit ball), theta Gaussian;
    reports min c per (r, N) over a bank subset and the stability across N.
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec = bank.spec
    frame_profile = build_resolution_of_unity(spec, bank.ladder).profile
    members = ["gauss_w1", "modgauss_f4", "weier_s05", "bandnoise_a",
               "smoothstep_w1", "tone_k8"]
    sr = spec.freq_radius()
    h = spec.spacing ** spec.dimension
    constants: Dict[str, float] = {}
    for r in (1.0, 0.5):
        for N in scales:
            omega_spec = frame_profile.Phi_hat(2.0 * sr / N)   # supp inside |xi| < N
            theta_spec = np.exp(-(sr / N) ** 2 / 2.0)
            eta = eta_kernel(spec, 1.0 / N, m)
            worst = 0.0
            for name in members:
                g = bank[name]
                F = spectrum(g)
                wg = from_spectrum(spec, omega_spec * F)
                lhs = np.abs(from_spectrum(spec, theta_spec * omega_spec * F).samples)
                u = np.abs(wg.samples) ** r
                rhs = np.abs(convolve(eta, GridFunction(spec, u)).samples) ** (1.0 / r)
                mask = rhs > rhs.max() * 1e-10
                if mask.any():
                    worst = max(worst, float((lhs[mask] / rhs[mask]).max()))
            constants[f"r={r}_N={N}"] = worst
    stab = {}
    for r in (1.0, 0.5):
        vals = [constants[f"r={r}_N={N}"] for N in scales]
        stab[f"r={r}"] = max(vals) / min(vals)
    passed = (all(np.isfinite(v) and v < HUGE for v in constants.values())
              and stab["r=1.0"] <= 2.0)
    return CheckReport(
        "subconvolution", seed,
        [{"m": m, "scales": list(scales), "members": members}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"stability_across_N": stab},
    )


# ---------------------------------------------------------------------------
# eta-kernel algebra (two convolutions are as good as one; cube averages)
# ---------------------------------------------------------------------------


def check_eta_algebra(bank: Optional[FunctionBank] = None, m: float = 4.0,
                      seed: int = 7, level_range: Sequence[int] = range(0, 7),
                      window: float = 6.0) -> CheckReport:
    """eta_{v0,m} * eta_{v1,m} ~ eta_{min(v0,v1),m} and cube-average comparison.

    The two-sided constants are measured on |x| <= window (the box truncates
    the kernels' tails; the window keeps wraparound out of the ratio).
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec = bank.spec
    x = spec.axis_coords()
    sel = np.abs(x) <= window
    etas = {v: eta_kernel(spec, 2.0 ** (-v), m) for v in level_range}
    constants: Dict[str, float] = {}
    worst_two = 0.0
    for v0 in level_range:
        for v1 in level_range:
            if v1 < v0:
                continue
            conv = convolve(etas[v0], etas[v1]).samples.real[sel]
            ref = etas[min(v0, v1)].samples.real[sel]
            ratio = conv / ref
            c = float(max(ratio.max(), 1.0 / ratio.min()))
            worst_two = max(worst_two, c)
    constants["conv_est_pairwise"] = worst_two

    # cube averages: eta_{v,m} * (chi_Q / |Q|) ~ eta_{v,m}(. - y), y in Q
    worst_cube = 0.0
    h = spec.spacing
    for v in (0, 2, 4):
        eta = etas[v]
        nc = cubes_per_axis(spec, v)
        spc = spec.points_per_axis // nc
        for mi in (0, -2, 3):
            j = mi + nc // 2
            maskQ = np.zeros(spec.shape)
            maskQ[j * spc:(j + 1) * spc] = 1.0 / (2.0 ** (-v))
            conv = convolve(eta, GridFunction(spec, maskQ)).samples.real
            for frac in (0.25, 0.75):
                y = x[j * spc + int(frac * spc)]
                shift = 2.0 ** v * np.abs(x - y)
                ref = 2.0 ** v * (1.0 + shift) ** (-m)
                ratio = (conv / ref)[sel]
                worst_cube = max(worst_cube, float(max(ratio.max(), 1.0 / ratio.min())))
    constants["conv_cube_average"] = worst_cube

    # eta mass facts: |eta_{t,m}|_1 -> 2/(m-1), t-independent while resolved.
    # Kernels of scale t carry an O((h/t)^2) Riemann error, so the smallest
    # scales are reported but the independence gate uses t >= 16 h.
    t_cmp = 16.0 * spec.spacing
    masses = {t: integrate(GridFunction(spec, np.abs(eta_kernel(spec, t, m).samples)))
              for t in (1.0, t_cmp, 1.0 / 64.0)}
    mass_dev = abs(masses[1.0] - masses[t_cmp]) / masses[1.0]

    passed = (worst_two < HUGE and worst_cube < HUGE and mass_dev < 1e-2)
    return CheckReport(
        "eta-algebra", seed,
        [{"m": m, "levels": list(level_range), "window": window}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"eta_masses": {str(k): v for k, v in masses.items()},
                 "mass_t_independence_rel": mass_dev,
                 "continuum_mass_2_over_m_minus_1": 2.0 / (m - 1.0)},
    )


# ---------------------------------------------------------------------------
# Hardy inequalities (discrete and continuous)
# ---------------------------------------------------------------------------


def check_hardy(bank: Optional[FunctionBank] = None, seed: int = 7,
                lengths: Sequence[int] = (16, 64, 256), draws: int = 20) -> CheckReport:
    """Discrete: ||sum_j |k-j|^sigma a^|k-j| eps_j||_q <= c ||eps||_q.
    Continuous: cumulative t^s / t^-s averages bounded on L^{q(.)}((0,1],dt/t)."""
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    rng = np.random.default_rng(seed)
    constants: Dict[str, float] = {}

    def smooth_kernel(sigma, a, length, margin=60):
        ks = np.arange(-margin, length + margin)
        off = np.abs(ks[:, None] - np.arange(length)[None, :])
        return (off.astype(float) ** sigma if sigma > 0 else np.ones_like(off, float)) \
            * a ** off

    for sigma in (0.0, 1.0):
        for a in (0.5, 0.25):
            for q in (1.0, 2.0):
                per_len = []
                for length in lengths:
                    Kmat = smooth_kernel(sigma, a, length)
                    worst = 0.0
                    for _ in range(draws):
                        eps = rng.random(length)
                        eps[rng.random(length) < 0.5] = 0.0
                        if eps.sum() == 0:
                            eps[0] = 1.0
                        delta = Kmat @ eps
                        c = (np.sum(delta ** q) ** (1 / q)) / (np.sum(eps ** q) ** (1 / q))
                        worst = max(worst, float(c))
                    per_len.append(worst)
                constants[f"discrete_sigma={sigma}_a={a}_q={q}"] = max(per_len)
                if sigma == 0.0 and a == 0.5 and q == 2.0:
                    # length stability on circulant sections with the all-ones
                    # input: finite sections carry O(1/length) edge defect,
                    # the circulant models the bi-infinite operator directly
                    cs = []
                    for length in lengths:
                        d = np.arange(length)
                        circ = np.minimum(d, length - d).astype(float)
                        row = 0.5 ** circ
                        cs.append(float(row.sum()))
                    stability = max(cs) / min(cs)

    # frozen closed form: unit impulse, sigma=0, a=1/2, q=1 -> c = 3
    Kmat = smooth_kernel(0.0, 0.5, 16)
    eps = np.zeros(16)
    eps[0] = 1.0
    impulse_c = float(np.sum(Kmat @ eps))
    constants["discrete_impulse_geometric"] = impulse_c

    # continuous version on the ladder
    ladder = bank.ladder
    ts, ws = ladder.t, ladder.weights
    profiles = {"t^0.2": ts ** 0.2}
    for i in range(5):
        wob = rng.normal(size=4)
        logt = np.log(ts)
        profiles[f"random{i}"] = np.exp(
            0.3 * sum(w * np.sin((j + 1) * logt / 3.0) for j, w in enumerate(wob)))
    for qname in ("q_const2", "q_logdecay"):
        qf = bank.exponents[qname]
        for s in (1.0, 0.5):
            worst = 0.0
            for pname, eps_t in profiles.items():
                eta_t = np.empty_like(ts)
                delta_t = np.empty_like(ts)
                for i, t in enumerate(ts):
                    above = ts >= t
                    below = ts <= t
                    eta_t[i] = t ** s * np.sum(ts[above] ** (-s) * eps_t[above] * ws[above])
                    delta_t[i] = t ** (-s) * np.sum(ts[below] ** s * eps_t[below] * ws[below])
                num = (t_norm(eta_t, qf, ladder, "variable")
                       + t_norm(delta_t, qf, ladder, "variable"))
                den = t_norm(eps_t, qf, ladder, "variable")
                worst = max(worst, num / den)
            constants[f"continuous_s={s}_{qname}"] = worst

    passed = (abs(impulse_c - 3.0) <= 1e-9
              and all(np.isfinite(v) and v < HUGE for v in constants.values())
              and stability <= 1.05)
    return CheckReport(
        "hardy", seed,
        [{"lengths": list(lengths), "draws": draws}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"length_stability_sigma0_a05_q2": stability},
    )

# ---------------------------------------------------------------------------
# key modular estimate (damped cube averages against the two-term bound)
# ---------------------------------------------------------------------------


def _interval_axis(upper: float, n_nodes: int = 512):
    t = np.geomspace(1e-4 * upper, upper, n_nodes)
    w = np.gradient(t)  # Lebesgue weights on the log-spaced axis
    return t, w


def _origin_constant_of_reciprocal(t: np.ndarray, p: np.ndarray, p0: float) -> float:
    return float(np.max(np.abs(1.0 / p - 1.0 / p0) * np.log(np.e + 1.0 / t)))


def check_key_modular(bank: Optional[FunctionBank] = None, m: float = 2.0,
                      seed: int = 7, cubes_per_level: int = 8,
                      x_per_cube: int = 24, pairs: int = 40) -> CheckReport:
    """(gamma_m avg_Q |f| w)^{p(x)} <= c [main term + damped tail term].

    Grid mode uses dyadic cubes and p(.) on the box; the interval modes run on
    a (0, b] axis with the three (omega, phi, g) right-hand sides.  Inputs are
    normalized to unit weighted Luxemburg norm first; the two RHS terms are
    reported separately so the binding one is visible.
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec = bank.spec
    h = spec.spacing
    xg = spec.axis_coords()
    constants: Dict[str, float] = {}
    tail_share: Dict[str, float] = {}
    members = ["gauss_w1", "modgauss_f4", "weier_s05", "bandnoise_a"]

    weights = {"w1": np.ones(spec.shape),
               "wgauss": 0.5 + np.exp(-xg ** 2)}
    subset_constants: Dict[str, float] = {}
    for pname in ("p_const2", "p_sin"):
        p = bank.exponents[pname]
        pv = p.grid_values()
        cl, cd = reciprocal_constants(p)
        c_inv = max(cl, cd if cd is not None else 0.0)
        gamma = math.exp(-4.0 * m * c_inv)
        for wname, wv in weights.items():
            worst, worst_share = 0.0, 0.0
            worst_half = 0.0  # over the first half of the members only
            for mem_i, name in enumerate(members):
                f = bank[name]
                nrm = solve_luxemburg(np.abs(f.samples), pv, wv * h).value
                fa = np.abs(f.samples) / nrm
                for level in (0, 1, 2, 3):
                    nc = cubes_per_axis(spec, level)
                    spc = spec.points_per_axis // nc
                    sideQ = 2.0 ** (-level)
                    for j in np.linspace(0, nc - 1, min(nc, cubes_per_level)).astype(int):
                        sl = slice(j * spc, (j + 1) * spc)
                        wQ = float(np.sum(wv[sl]) * h)
                        A = float(np.sum(fa[sl] * wv[sl]) * h / wQ)
                        meanP = float(np.sum(fa[sl] ** pv[sl] * wv[sl]) * h / wQ)
                        mean_ey = float(np.sum((np.e + np.abs(xg[sl])) ** (-m)
                                               * wv[sl]) * h / wQ)
                        pQmin = float(pv[sl].min())
                        xi = np.linspace(0, spc - 1, min(spc, x_per_cube)).astype(int) + j * spc
                        px = pv[xi]
                        lhs = (gamma * A) ** px
                        T1 = np.maximum(1.0, wQ ** (1.0 - px / pQmin)) * meanP
                        T2 = min(sideQ ** m, 1.0) * ((np.e + np.abs(xg[xi])) ** (-m) + mean_ey)
                        ratio = lhs / (T1 + T2)
                        i = int(np.argmax(ratio))
                        if ratio[i] > worst:
                            worst = float(ratio[i])
                            worst_share = float(T2[i] / (T1[i] + T2[i]))
                        if mem_i < len(members) // 2:
                            worst_half = max(worst_half, float(ratio[i]))
            key = f"grid_{pname}_{wname}"
            constants[key] = worst
            tail_share[key] = worst_share
            subset_constants[key] = worst_half

    # interval variants on a (0, b] axis
    rng = np.random.default_rng(seed)

    def run_interval(mode: str, t, wleb, pvals, p0, gamma, phi_of, g_term):
        worst, worst_share = 0.0, 0.0
        profiles = [t ** 0.2, 1.5 + np.sin(np.log(t)),
                    np.exp(0.4 * np.sin(3 * np.log(np.e + 1 / t)))]
        for prof in profiles:
            nrm = solve_luxemburg(prof, pvals, wleb).value
            fa = prof / nrm
            for _ in range(pairs):
                i, j = sorted(rng.integers(0, len(t), size=2))
                if j - i < 4:
                    continue
                sl = slice(i, j + 1)
                b = float(t[j])
                wQ = float(np.sum(wleb[sl]))
                A = float(np.sum(fa[sl] * wleb[sl]) / wQ)
                phi_mean = float(np.sum(phi_of(fa[sl], sl) * wleb[sl]) / wQ)
                pmin = float(pvals.min())
                xsel = np.linspace(i, j, min(j - i + 1, 16)).astype(int)
                px = pvals[xsel]
                lhs = (gamma * A) ** px
                T1 = np.maximum(1.0, wQ ** (1.0 - px / pmin)) * phi_mean
                T2 = g_term(t[xsel], px, sl, b, wQ)
                ratio = lhs / (T1 + T2 + 1e-300)
                k = int(np.argmax(ratio))
                if ratio[k] > worst:
                    worst = float(ratio[k])
                    worst_share = float(T2[k] / (T1[k] + T2[k] + 1e-300))
        return worst, worst_share

    t, wleb = _interval_axis(1.0)
    for pname, pvals, p0 in (
        ("pup", 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0),
        ("pdown", 2.5 - 0.4 / np.log(np.e + 1.0 / t), 2.5),
    ):
        c_inv = _origin_constant_of_reciprocal(t, pvals, p0)
        gamma = math.exp(-4.0 * m * c_inv)

        def phi_p(fa_sl, sl):
            return fa_sl ** pvals[sl]

        def g_p(tx, px, sl, b, wQ):
            mean_gy = float(np.sum(((np.e + 1.0 / t[sl]) ** (-m)) * wleb[sl]) / wQ)
            return min(b ** m, 1.0) * ((np.e + 1.0 / tx) ** (-m) + mean_gy)

        c, share = run_interval("interval_p", t, wleb, pvals, p0, gamma, phi_p, g_p)
        constants[f"interval_p_{pname}"] = c
        tail_share[f"interval_p_{pname}"] = share

        def phi_p0(fa_sl, sl):
            return fa_sl ** p0

        def g_p0(tx, px, sl, b, wQ):
            chi = (px < p0).astype(float)
            return min(b ** m, 1.0) * (np.e + 1.0 / tx) ** (-m) * chi

        c, share = run_interval("interval_p0", t, wleb, pvals, p0, gamma, phi_p0, g_p0)
        constants[f"interval_p0_{pname}"] = c
        tail_share[f"interval_p0_{pname}"] = share

    # decay-at-infinity variant on (0, 16]
    tb, wlebb = _interval_axis(16.0)
    for pname, pvals, pinf in (
        ("below", 2.0 - 0.8 / np.log(np.e + tb), 2.0),
        ("above", 2.0 + 0.8 / np.log(np.e + tb), 2.0),
    ):
        c_dec = float(np.max(np.abs(1.0 / pvals - 1.0 / pinf) * np.log(np.e + tb)))
        gamma = math.exp(-m * c_dec)

        def phi_pi(fa_sl, sl):
            return fa_sl ** pinf

        def g_pi(tx, px, sl, b, wQ):
            chi = (px < pinf).astype(float)
            return (np.e + tx) ** (-m) * chi

        c, share = run_interval("interval_pinf", tb, wlebb, pvals, pinf, gamma,
                                phi_pi, g_pi)
        constants[f"interval_pinf_{pname}"] = c
        tail_share[f"interval_pinf_{pname}"] = share

    jensen_ok = constants["grid_p_const2_w1"] <= 1.0 + 1e-6
    # self-consistency: the max over a member subset never exceeds the max
    # over the full set
    subset_ok = all(subset_constants[k] <= constants[k] * (1 + 1e-12)
                    for k in subset_constants)
    passed = (jensen_ok and subset_ok
              and all(np.isfinite(v) and v < HUGE for v in constants.values()))
    return CheckReport(
        "key-modular", seed,
        [{"m": m, "cubes_per_level": cubes_per_level, "members": members}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"tail_term_share_at_worst": tail_share,
                 "jensen_constant_at_most_one": jensen_ok,
                 "subset_constants": subset_constants,
                 "subset_max_below_full_max": subset_ok},
    )


# ---------------------------------------------------------------------------
# mixed-norm equivalences on the t-axis (octave blocks vs fixed exponent)
# ---------------------------------------------------------------------------


def check_mixed_equivalence(bank: Optional[FunctionBank] = None,
                            seed: int = 7, draws: int = 12) -> CheckReport:
    """Octave-block mixed norm vs (sum ||f_v||^{q(0)})^{1/q(0)}, the masked-cube
    variant with t^{-alpha}, and the 2^{-|k-v|delta} smoothing bound."""
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    ladder = bank.ladder
    V = ladder.octaves
    rng = np.random.default_rng(seed)
    constants: Dict[str, float] = {}

    def block_profile(a):
        g = np.zeros(ladder.t.size)
        for v in range(1, V + 1):
            g[ladder.octave_slice(v)] = a[v - 1]
        return g

    # part A: scalar level norms
    qc = bank.exponents["q_const2"]
    ql = bank.exponents["q_logdecay"]
    const_dev, ratio_lo, ratio_hi = 0.0, np.inf, 0.0
    for _ in range(draws):
        a = rng.random(V)
        a[rng.random(V) < 0.3] = 0.0
        if a.sum() == 0:
            a[0] = 1.0
        lhs_c = octave_block_norm(block_profile(a), ladder, qc)
        rhs_c = float(np.sum(a ** 2.0) ** 0.5)
        const_dev = max(const_dev, abs(lhs_c / (math.log(2.0) ** 0.5 * rhs_c) - 1.0))
        lhs_v = octave_block_norm(block_profile(a), ladder, ql)
        rhs_v = float(np.sum(a ** 2.0) ** 0.5)
        r = lhs_v / rhs_v
        ratio_lo, ratio_hi = min(ratio_lo, r), max(ratio_hi, r)
    constants["scalar_qconst_normalized_dev"] = const_dev
    constants["scalar_qlog_ratio_max"] = ratio_hi
    constants["scalar_qlog_ratio_min"] = ratio_lo

    # single-level sweep: ratio must not depend on the level
    sweep = []
    for v in range(1, V + 1):
        a = np.zeros(V)
        a[v - 1] = 1.0
        sweep.append(octave_block_norm(block_profile(a), ladder, ql))
    sweep = np.asarray(sweep)
    constants["single_level_spread"] = float(sweep.max() / sweep.min())

    # part B: cube-masked grid functions with t^-alpha weights
    spec = bank.spec
    h = spec.spacing
    alpha = bank.exponents["alpha_signchange"].grid_values()
    p = bank.exponents["p_sin"].grid_values()
    member_cycle = ["gauss_w1", "modgauss_f4", "bandnoise_a", "smoothstep_w1"]
    terms, q_levels, rhs_acc = [], [], 0.0
    q0 = float(ql.limit_value)
    for v in range(1, V + 1):
        f = bank[member_cycle[(v - 1) % len(member_cycle)]]
        nc = cubes_per_axis(spec, v)
        spc = spec.points_per_axis // nc
        j = nc // 2  # cube just right of the origin
        masked = np.zeros(spec.shape)
        masked[j * spc:(j + 1) * spc] = np.abs(f.samples[j * spc:(j + 1) * spc])
        sl = ladder.octave_slice(v)
        ts = ladder.t[sl]
        qs = np.asarray(ql.value_at(ts))
        node_vals = np.array([
            solve_luxemburg(t ** (-alpha) * masked, p, h).value for t in ts])
        terms.append((ts ** (-1.0 / qs) * node_vals, qs, ts * ladder.weights[sl]))
        q_levels.append(float(ql.value_at(ScaleLadder.octave_midpoint(v))))
        rhs_acc += solve_luxemburg(2.0 ** (v * alpha) * masked, p, h).value ** q0
    lhs = mixed_core(terms, q_levels)
    rhs = rhs_acc ** (1.0 / q0)
    constants["masked_cube_ratio"] = lhs / rhs

    # part C: smoothing map contracts up to a constant
    worst = {0.5: 0.0, 1.0: 0.0}
    for delta in (0.5, 1.0):
        for _ in range(draws):
            a = rng.random(V)
            g = np.array([sum(2.0 ** (-abs(k - v) * delta) * a[k] for k in range(V))
                          for v in range(V)])
            num = octave_block_norm(block_profile(g), ladder, ql)
            den = octave_block_norm(block_profile(a), ladder, ql)
            worst[delta] = max(worst[delta], num / den)
        constants[f"smoothing_delta={delta}"] = worst[delta]

    passed = (const_dev <= 1e-9
              and 0.5 <= ratio_lo and ratio_hi <= 2.0
              and constants["single_level_spread"] <= 1.10
              and all(np.isfinite(v) and v < HUGE for v in constants.values()))
    return CheckReport(
        "mixed-equivalence", seed,
        [{"draws": draws, "octaves": V}],
        constants, _finite(constants), passed, time.time() - t0,
        details={"single_level_values": sweep.tolist()},
    )


# ---------------------------------------------------------------------------
# kernel decay under vanishing moments; FJ-style atom decay
# ---------------------------------------------------------------------------


def _fj_atom(spec: GridSpec, v: int, mloc: int, K: int, L: int):
    """Atom of exactly C^{K + 1/4} smoothness with L+1 vanishing moments.

    psi is the (L+1)-th derivative of (1-u^2)^{K+L+5/4}, sup-normalized over
    derivative orders <= K, placed as 2^{v/2} psi(2^v x - mloc); the discrete
    moments through L are projected out so the grid quadrature sees exact
    zeros.  Fractional smoothness pins the observable fine-scale decay
    exponent at ~K + 1/4 instead of running off to the atom's full regularity.
    """
    x = spec.axis_coords()
    u = 2.0 ** v * x - mloc - 0.5  # center of Q_{v,mloc}
    pexp = K + L + 1.25

    def base(w, order):
        # analytic derivatives of (1-w^2)^pexp up to the orders we need
        inside = np.abs(w) < 1
        out = np.zeros_like(w)
        g = np.zeros_like(w)
        g[inside] = (1 - w[inside] ** 2)
        if order == 0:
            out[inside] = g[inside] ** pexp
        elif order == 1:
            out[inside] = pexp * g[inside] ** (pexp - 1) * (-2 * w[inside])
        else:
            raise ParameterError("fj atom supports L <= 0 construction")
        return out

    psi = base(u, L + 1)
    # discrete moment projection: subtract multiples of a smooth bump
    h = spec.spacing
    bump = base(u, 0)
    for b in range(0, L + 1):
        mono = x ** b
        mom = np.sum(mono * psi) * h
        ref = np.sum(mono * bump) * h
        psi = psi - (mom / ref) * bump
    # sup-normalize over derivative orders 0..K at the atom's own scale
    a = GridFunction(spec, 2.0 ** (v / 2) * psi)
    worst = 0.0
    for beta in range(K + 1):
        da = spectral_derivative(a, beta)
        worst = max(worst, float(np.max(da.abs_samples())) / 2.0 ** (v * (beta + 0.5)))
    return GridFunction(spec, a.samples / worst)


def check_kernel_decay(bank: Optional[FunctionBank] = None, seed: int = 7,
                       N_poly: float = 4.0,
                       moment_orders: Sequence[int] = (-1, 1, 3)) -> CheckReport:
    """sup_z |mu_t * rho(z)| (1+|z|)^N ~ t^{M+1} for mu with M+1 vanishing
    moments; M = -1 shows no gain.  The FJ variant regresses both decay
    exponents of band transforms of a constructed atom."""
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec = bank.spec
    x = spec.axis_coords()
    rho = from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    Frho = spectrum(rho)
    sr = spec.freq_radius()
    constants: Dict[str, float] = {}
    slopes: Dict[str, float] = {}
    t_list = 2.0 ** (-np.arange(2, 7, dtype=float))
    for M in moment_orders:
        pair = build_local_mean_pair(spec, S=M)
        sups = []
        for t in t_list:
            conv = from_spectrum(spec, pair.k_spectrum_at(t * sr) * Frho)
            sups.append(float(np.max(conv.abs_samples() * (1 + np.abs(x)) ** N_poly)))
        slope = float(np.polyfit(np.log(t_list), np.log(sups), 1)[0])
        slopes[f"M={M}"] = slope
        constants[f"M={M}_sup_at_tmin"] = sups[-1] / t_list[-1] ** max(M + 1, 0)

    # FJ variant: constructed atom, both level-offset branches
    v, mloc, K, L = 3, 2, 2, 0
    atom = _fj_atom(spec, v, mloc, K, L)
    frame = build_resolution_of_unity(spec, bank.ladder)
    Fa = spectrum(atom)
    xQ = 2.0 ** (-v) * mloc
    fine_j = np.arange(v, v + 5)
    fine_sups = []
    for j in fine_j:
        conv = from_spectrum(spec, frame.profile.phi_hat(2.0 ** (-j) * sr) * Fa)
        fine_sups.append(float(np.max(conv.abs_samples()
                                      * (1 + 2.0 ** v * np.abs(x - xQ)) ** N_poly)))
    slope_K = float(-np.polyfit(fine_j, np.log2(fine_sups), 1)[0])
    coarse_j = np.arange(0, v + 1)
    coarse_sups = []
    for j in coarse_j:
        conv = from_spectrum(spec, frame.profile.phi_hat(2.0 ** (-j) * sr) * Fa)
        coarse_sups.append(float(np.max(conv.abs_samples()
                                        * (1 + 2.0 ** j * np.abs(x - xQ)) ** N_poly)))
    slope_L = float(np.polyfit(coarse_j, np.log2(coarse_sups), 1)[0])
    slopes["fj_fine_scale"] = slope_K
    slopes["fj_coarse_scale"] = slope_L

    atom_report = validate_atom(atom, v, (mloc,), K, L, gamma=3.0)

    passed = (abs(slopes["M=-1"]) <= 0.2
              and slopes["M=1"] >= 1.8
              and slopes["M=3"] >= 3.8
              and abs(slope_K - K) <= 0.3
              and abs(slope_L - (L + spec.dimension + 1)) <= 0.3
              and atom_report.validation["pass"])
    return CheckReport(
        "kernel-decay", seed,
        [{"N_poly": N_poly, "moment_orders": list(moment_orders),
          "fj_atom": {"v": v, "m": mloc, "K": K, "L": L}}],
        constants, [], passed, time.time() - t0,
        details={"slopes": slopes,
                 "fj_atom_validation": atom_report.validation},
    )

# ---------------------------------------------------------------------------
# embedding inequalities
# ---------------------------------------------------------------------------


def _scaled_profile(base, s: float):
    """Profile for constant smoothness s from the alpha = 0 base profile."""
    from .besov import ScaleProfile
    return ScaleProfile(base.ladder, base.values * base.ladder.t ** (-s), base.level0)


def check_embeddings(bank: Optional[FunctionBank] = None, seed: int = 7,
                     variable_members: int = 6) -> CheckReport:
    """Target norm <= c * source norm for the three embedding regimes.

    Constant-exponent configurations run bank-wide (profiles at alpha = 0 are
    shared and rescaled); the variable-exponent spot checks run on a member
    subset.  The fixed-q q-monotonicity configuration must have c <= 1.1.
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank()
    spec, ladder = bank.spec, bank.ladder
    frame = build_resolution_of_unity(spec, ladder)
    p2 = bank.exponents["p_const2"]
    p4 = bank.exponents["p_const4"]
    q2, q3 = bank.exponents["q_const2"], bank.exponents["q_const3"]
    ql2, ql3 = bank.exponents["q_logdecay"], bank.exponents["q_logdecay3"]
    alpha0 = bank.exponents["alpha_const0"]
    names = bank.names()

    base2 = {n: lp_profile(bank[n], frame, alpha0, p2) for n in names}
    base4 = {n: lp_profile(bank[n], frame, alpha0, p4) for n in names}

    def norm_const_alpha(base, s, q):
        prof = _scaled_profile(base, s)
        return prof.level0 + t_norm(prof.values, q, ladder, "variable")

    constants: Dict[str, float] = {}

    # (i) elementary embedding: alpha drops by 0.2, any (q0, q1)
    worst = 0.0
    for n in names:
        src = norm_const_alpha(base2[n], 0.5, ql3)
        tgt = norm_const_alpha(base2[n], 0.3, ql2)
        if src > 0:
            worst = max(worst, tgt / src)
    constants["elementary_alpha_margin"] = worst

    # (ii) q-monotone: q0(0)=2 <= q1(0)=3, same alpha and p.  The gated
    # profile-level constant uses octave blocks (sup per octave), where pure
    # sequence monotonicity bounds it by (log 2)^{1/3-1/2}; the full-form
    # ratio additionally carries within-octave variation and is reported only.
    worst, worst_full = 0.0, 0.0
    ln2 = math.log(2.0)
    for n in names:
        prof = _scaled_profile(base2[n], 0.5)
        blocks = np.array([prof.values[ladder.octave_slice(v)].max()
                           for v in range(1, ladder.octaves + 1)])
        if blocks.sum() == 0:
            continue
        b_src = prof.level0 + (np.sum(blocks ** 2.0) * ln2) ** (1 / 2.0)
        b_tgt = prof.level0 + (np.sum(blocks ** 3.0) * ln2) ** (1 / 3.0)
        worst = max(worst, b_tgt / b_src)
        src = norm_const_alpha(base2[n], 0.5, q2)
        tgt = norm_const_alpha(base2[n], 0.5, q3)
        if src > 0:
            worst_full = max(worst_full, tgt / src)
    constants["q_monotone_profile_level"] = worst
    constants["q_monotone_full_form"] = worst_full

    # (iii) Sobolev line: p0=2 -> p1=4, alpha0 = alpha1 + 1/4 (n = 1)
    worst = 0.0
    for n in names:
        src = norm_const_alpha(base2[n], 0.75, ql2)
        tgt = norm_const_alpha(base4[n], 0.5, ql2)
        if src > 0:
            worst = max(worst, tgt / src)
    constants["sobolev_line_p2_to_p4"] = worst

    # variable-exponent spot checks on a subset
    subset = names[:variable_members]
    a_var = bank.exponents["alpha_signchange"]
    a_var_up = field_from_callable(
        spec, lambda x: 0.55 + 0.6 * np.sin(2 * np.pi * x / spec.box_length),
        "alpha", 0.55)
    p_sin = bank.exponents["p_sin"]
    p_sin1 = field_from_callable(
        spec, lambda x: 4.0 + np.sin(2 * np.pi * x / spec.box_length), "p", 4.0)
    # Sobolev line solved for alpha1: alpha1 = alpha0 - n/p0 + n/p1
    a1_vals = 1.2 - 1.0 / p_sin.grid_values() + 1.0 / p_sin1.grid_values()
    a_sob1 = make_exponent_field(a1_vals.reshape(-1), "alpha", None, spec=spec)
    a_sob0 = bank.exponents["alpha_const12"]
    worst_elem, worst_sob = 0.0, 0.0
    for n in subset:
        f = bank[n]
        src = besov_norm(f, frame, a_var_up, p_sin, ql2).value
        tgt = besov_norm(f, frame, a_var, p_sin, ql2).value
        if src > 0:
            worst_elem = max(worst_elem, tgt / src)
        src = besov_norm(f, frame, a_sob0, p_sin, ql2).value
        tgt = besov_norm(f, frame, a_sob1, p_sin1, ql2).value
        if src > 0:
            worst_sob = max(worst_sob, tgt / src)
    constants["elementary_variable"] = worst_elem
    constants["sobolev_variable"] = worst_sob

    # identical source/target sanity: c = 1 exactly
    n0 = names[0]
    same = (norm_const_alpha(base2[n0], 0.5, q2)
            / norm_const_alpha(base2[n0], 0.5, q2))
    constants["identity_embedding"] = same

    # chain: norms finite against Schwartz-type seminorms; pairing bound
    x = spec.axis_coords()
    g0 = from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    worst_upper, worst_pair = 0.0, 0.0
    smooth = ["gauss_w05", "gauss_w1", "gauss_w2", "modgauss_f4", "dgauss", "gausspair"]
    for n in smooth:
        f = bank[n]
        semi = 0.0
        for gpow in (0, 1, 2):
            for beta in (0, 1, 2):
                df = spectral_derivative(f, beta)
                semi = max(semi, float(np.max(np.abs(x) ** gpow * df.abs_samples())))
        bn = norm_const_alpha(base2[n], 0.5, q2)
        worst_upper = max(worst_upper, bn / semi)
        pairing = abs(integrate(GridFunction(spec, (f.samples * g0.samples))))
        if bn > 0:
            worst_pair = max(worst_pair, pairing / bn)
    constants["schwartz_to_space"] = worst_upper
    constants["space_to_distributions"] = worst_pair

    passed = (all(np.isfinite(v) and v < HUGE for v in constants.values())
              and constants["q_monotone_profile_level"] <= 1.1
              and abs(constants["identity_embedding"] - 1.0) < 1e-12)
    return CheckReport(
        "embeddings", seed,
        [{"variable_members": subset}],
        constants, _finite(constants), passed, time.time() - t0,
    )


# ---------------------------------------------------------------------------
# norm-form equivalence matrix
# ---------------------------------------------------------------------------


def check_norm_equivalences(bank: Optional[FunctionBank] = None, seed: int = 7,
                            members: Optional[Sequence[str]] = None,
                            peetre_a: float = 2.0, S: int = 2,
                            ratio_window: float = 10.0,
                            max_points: int = 2048) -> CheckReport:
    """All norm forms across two frames; flags pairwise ratios outside
    [1/window, window].

    The maximal-function forms are the costly ones: the pruned maximal
    function evaluates only the block pairs that can set a maximum, usually
    a few percent, but its worst case is still O(N^2) per scale node.  The
    working resolution therefore stays capped at max_points (the matrix's
    reference resolution); a larger input bank is rebuilt at the cap with
    the same ladder and seed.
    """
    t0 = time.time()
    if bank is None:
        bank = make_bank(make_grid(1, 16.0, 2048))
    if bank.spec.points_per_axis > max_points:
        bank = make_bank(
            make_grid(bank.spec.dimension, bank.spec.box_length, max_points),
            bank.ladder, seed=bank.seed)
    spec, ladder = bank.spec, bank.ladder
    frame1 = build_resolution_of_unity(spec, ladder, BumpParams(6))
    frame2 = build_resolution_of_unity(spec, ladder, BumpParams(10))
    pair = build_local_mean_pair(spec, S=S)
    if members is None:
        members = bank.names()
    configs = [
        ("const", bank.exponents["alpha_const05"], bank.exponents["p_const2"],
         bank.exponents["q_const2"]),
        ("variable", bank.exponents["alpha_signchange"], bank.exponents["p_sin"],
         bank.exponents["q_logdecay"]),
    ]
    constants: Dict[str, float] = {}
    violations: List[dict] = []
    matrices: Dict[str, dict] = {}
    for label, alpha, p, q in configs:
        worst_spread = 0.0
        worst_entry = None
        per_member = {}
        for name in members:
            f = bank[name]
            prof1 = lp_profile(f, frame1, alpha, p)
            vals = {
                "direct": besov_norm(f, frame1, alpha, p, q, "direct", profile=prof1).value,
                "direct_frame2": besov_norm(f, frame2, alpha, p, q, "direct").value,
                "q0": besov_norm(f, frame1, alpha, p, q, "q0", profile=prof1).value,
                "discretized": besov_norm(f, frame1, alpha, p, q, "discretized",
                                          profile=prof1).value,
                "peetre": besov_norm(f, frame1, alpha, p, q, "peetre", a=peetre_a).value,
                "local_prime": local_mean_norm(f, pair, alpha, p, q, peetre_a,
                                               "prime", ladder).value,
                "local_double_prime": local_mean_norm(f, pair, alpha, p, q, peetre_a,
                                                      "double_prime", ladder).value,
            }
            if all(v == 0 for v in vals.values()):
                continue
            names_f = list(vals)
            for i, ni in enumerate(names_f):
                for nj in names_f[i + 1:]:
                    if vals[ni] == 0 or vals[nj] == 0:
                        violations.append({"config": label, "member": name,
                                           "pair": (ni, nj), "reason": "zero-norm"})
                        continue
                    r = vals[ni] / vals[nj]
                    spread = max(r, 1 / r)
                    if spread > worst_spread:
                        worst_spread = spread
                        worst_entry = {"member": name, "pair": (ni, nj), "ratio": r}
                    if spread > ratio_window:
                        violations.append({"config": label, "member": name,
                                           "pair": (ni, nj), "ratio": r})
            per_member[name] = vals
        constants[f"{label}_max_pairwise_spread"] = worst_spread
        matrices[label] = {"worst": worst_entry, "values": per_member}
    passed = not violations
    return CheckReport(
        "norm-equivalences", seed,
        [{"members": list(members), "peetre_a": peetre_a, "S": S,
          "ratio_window": ratio_window}],
        constants, violations, passed, time.time() - t0,
        details={"matrices": matrices},
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

LEMMA_CHECKS = {
    "pointwise-shift": check_pointwise_shift,
    "subconvolution": check_subconvolution,
    "eta-algebra": check_eta_algebra,
    "hardy": check_hardy,
    "key-modular": check_key_modular,
    "mixed-equivalence": check_mixed_equivalence,
    "kernel-decay": check_kernel_decay,
}

CHECKS: Dict[str, Callable[..., CheckReport]] = {
    **LEMMA_CHECKS,
    "embeddings": check_embeddings,
    "norm-equivalences": check_norm_equivalences,
}


def run_checks(which: Sequence[str] = ("all",), bank: Optional[FunctionBank] = None,
               seed: int = 7, jobs: int = 1) -> List[CheckReport]:
    """Run the named checks (or all) and return reports sorted by check id."""
    names = sorted(CHECKS) if "all" in which else list(which)
    for n in names:
        if n not in CHECKS:
            raise ParameterError(f"unknown check {n!r}; known: {sorted(CHECKS)}")
    if bank is None:
        bank = make_bank()
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            futs = {n: ex.submit(CHECKS[n], bank=bank, seed=seed) for n in names}
            reports = [futs[n].result() for n in names]
    else:
        reports = [CHECKS[n](bank=bank, seed=seed) for n in names]
    return sorted(reports, key=lambda r: r.check_id)
