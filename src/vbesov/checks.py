"""Numerical verification of the convolution, modular, and embedding estimates.

Every check samples configurations, computes both sides of an inequality,
and reports the minimal admissible constant per configuration.  Its verdict
is its list of gates, each one measured value against a bound; the report
adds a finiteness gate per constant.  No bound is derived, so no gate is set,
for Hardy's `q_logdecay` and discrete constants, `masked_cube_ratio`,
`smoothing_delta=*` and the embedding ratios.  Each check's orders, scales
and sample sizes are constants inside it, so the suite is deterministic
under a seed; a check takes as keywords only the seed and the budgets that
the acceptance suite refines (sample counts, members, the grid cap).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .atoms import level_sequence_norm, validate_atom
from .bank import FunctionBank, make_bank
from .besov import FORMS, besov_norm, lp_profile
from .errors import ParameterError
from .exponents import (field_from_callable, log_holder_constants,
                        make_exponent_field, reciprocal_constants)
from .frame import (BumpParams, build_local_mean_pair,
                    build_resolution_of_unity, eta_kernel)
from .grid import (DyadicCube, GridFunction, GridSpec, band_rows, convolve, cube_mask,
                   cubes_per_axis, from_callable, from_spectrum, integrate, make_grid,
                   spectral_derivative, spectrum)
from .luxemburg import octave_block_norm, solve_luxemburg, t_norm

HUGE = 1e12  # constants above this count as "no finite constant"


@dataclass(frozen=True)
class Gate:
    """`value` `sense` `bound`, sense "<=" or ">=".  The margin is the signed
    distance to the bound over |bound|, positive on the passing side; the gate
    passes when it is >= 0, so a NaN value fails."""
    name: str
    value: float
    bound: float
    sense: str = "<="

    @property
    def margin(self) -> float:
        gap = self.bound - self.value if self.sense == "<=" else self.value - self.bound
        return gap / abs(self.bound)

    @property
    def passed(self) -> bool:
        return self.margin >= 0

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "margin": self.margin}


@dataclass
class CheckReport:
    """One check's constants and gates; construction appends a gate
    `finite:<key>` (value <= HUGE) per constant.  `passed` and `violations`
    are read off the gates.  `runtime_s`, set by run_checks, is not in to_dict().
    """
    check_id: str
    seed: int
    configurations: List[dict]
    constants: Dict[str, float]
    gates: List[Gate]
    details: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def __post_init__(self):
        self.gates = self.gates + [Gate(f"finite:{k}", v, HUGE)
                                   for k, v in self.constants.items()]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def violations(self) -> List[dict]:
        return [g.to_dict() for g in self.gates if not g.passed]

    def to_dict(self) -> dict:
        return {"check_id": self.check_id, "seed": self.seed,
                "configurations": self.configurations, "constants": self.constants,
                "gates": [g.to_dict() for g in self.gates], "violations": self.violations,
                "passed": self.passed, "details": self.details}


def _stability(base: float, refined: float) -> float:
    if base == 0 and refined == 0:
        return 1.0
    return max(base, refined) / max(min(base, refined), 1e-300)


# ---------------------------------------------------------------------------
# pointwise shift estimate (moving t^-alpha(x) across the eta kernel)
# ---------------------------------------------------------------------------


def check_pointwise_shift(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """t^{-a(x)} eta_{t,m+R}(x-y) <= c t^{-a(y)} eta_{t,m}(x-y) for R >= clog(a).

    Also runs the origin variant and the designed R = 0 failure, whose
    constant must grow across the ladder.
    """
    m, x_stride = 4.0, 16
    spec, ladder = bank.spec, bank.ladder
    alpha = bank.exponents["alpha_signchange"]
    clog_alpha = log_holder_constants(alpha, alpha.samples, alpha.limit_value)[0]
    R = 2.0 * clog_alpha
    x, av = spec.axis_coords(), alpha.grid_values()
    xs, av_s = x[::x_stride], av[::x_stride]

    def max_ratio(R_order, x_rows=xs, a_rows=av_s, y=xs, ay=av_s):
        # ratio_t(x,y) = t^{a(y)-a(x)} (1 + |x-y|/t)^{-R}, worst per t
        d = np.abs(x_rows[:, None] - y[None, :])
        dexp = ay[None, :] - a_rows[:, None]  # a(y) - a(x), x rows
        return np.array([(t ** (-dexp) * (1.0 + d / t) ** (-R_order)).max()
                         for t in ladder.t])

    constants: Dict[str, float] = {}
    constants["alpha_signchange_R2clog"] = float(max_ratio(R).max())
    constants["alpha_signchange_Rclog"] = float(max_ratio(clog_alpha).max())

    # origin variant: the row x = 0 against every sampled y, a(0) fixed
    i0 = int(np.argmin(np.abs(x)))
    constants["origin_variant"] = float(max_ratio(R, x[i0:i0 + 1], av[i0:i0 + 1]).max())

    # designed failure: R = 0, nonconstant alpha -> per-t constant diverges
    w_fail = max_ratio(0.0)
    growth = float(w_fail.max() / max(w_fail.min(), 1e-300))

    # refinement: halve the stride
    half = x_stride // 2
    refined = float(max_ratio(R, x[::half], av[::half], x[::half], av[::half]).max())

    return CheckReport(
        "pointwise-shift", seed,
        [{"m": m, "R": R, "clog_alpha": clog_alpha, "x_stride": x_stride}],
        constants,
        [Gate("R0_growth", growth, 10.0, ">="),
         Gate("refinement", _stability(constants["alpha_signchange_R2clog"], refined), 1.25)],
        details={"R0_growth_across_ladder": growth,
                 "refined_constant": refined,
                 "per_t_constants_R0": {"t_max": float(w_fail[0]), "t_min": float(w_fail[-1])}},
    )


# ---------------------------------------------------------------------------
# subconvolution (r-trick) estimate
# ---------------------------------------------------------------------------


def check_subconvolution(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """|theta_N * omega_N * g| <= c (eta_{N,m} * |omega_N * g|^r)^{1/r}.

    omega is band-limited (spectrum inside the unit ball), theta Gaussian;
    reports min c per (r, N) over a bank subset and the stability across N.
    """
    m, scales = 4.0, (4, 16, 64)
    spec = bank.spec
    frame_profile = build_resolution_of_unity(spec, bank.ladder).profile
    members = ["gauss_w1", "modgauss_f4", "weier_s05", "bandnoise_a",
               "smoothstep_w1", "tone_k8"]
    sr = spec.freq_radius()
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
    return CheckReport(
        "subconvolution", seed,
        [{"m": m, "scales": list(scales), "members": members}],
        constants, [Gate("stability_r=1.0", stab["r=1.0"], 2.0)],
        details={"stability_across_N": stab},
    )


# ---------------------------------------------------------------------------
# eta-kernel algebra (two convolutions are as good as one; cube averages)
# ---------------------------------------------------------------------------


def check_eta_algebra(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """eta_{v0,m} * eta_{v1,m} ~ eta_{min(v0,v1),m} and cube-average comparison.

    The two-sided constants are measured on |x| <= window (the box truncates
    the kernels' tails; the window keeps wraparound out of the ratio).
    """
    m, level_range, window = 4.0, range(0, 7), 6.0
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
    for v in (0, 2, 4):
        eta = etas[v]
        for mi in (0, -2, 3):
            maskQ = cube_mask(spec, DyadicCube(v, (mi,)))
            conv = convolve(eta, GridFunction(spec, maskQ / 2.0 ** (-v))).samples.real
            inQ = np.flatnonzero(maskQ)
            for frac in (0.25, 0.75):
                y = x[inQ[int(frac * inQ.size)]]
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

    return CheckReport(
        "eta-algebra", seed,
        [{"m": m, "levels": list(level_range), "window": window}],
        constants, [Gate("mass_t_independence", mass_dev, 1e-2)],
        details={"eta_masses": {str(k): v for k, v in masses.items()},
                 "mass_t_independence_rel": mass_dev,
                 "continuum_mass_2_over_m_minus_1": 2.0 / (m - 1.0)},
    )


# ---------------------------------------------------------------------------
# Hardy inequalities (discrete and continuous)
# ---------------------------------------------------------------------------


def check_hardy(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """Discrete: ||sum_j |k-j|^sigma a^|k-j| eps_j||_q <= c ||eps||_q.
    Continuous: cumulative t^s / t^-s averages bounded on L^{q(.)}((0,1],dt/t).

    At constant q each of the two averaging operators has norm <= 1/s, so
    the gate is the continuous q_const2 constant <= 2/s."""
    lengths, draws = (16, 64, 256), 20
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

    return CheckReport(
        "hardy", seed,
        [{"lengths": list(lengths), "draws": draws}],
        constants, [Gate(f"continuous_s={s}_q_const2", constants[f"continuous_s={s}_q_const2"],
                         2.0 / s) for s in (1.0, 0.5)],
    )

# ---------------------------------------------------------------------------
# key modular estimate (damped cube averages against the two-term bound)
# ---------------------------------------------------------------------------


def _interval_axis(upper: float, n_nodes: int = 512):
    t = np.geomspace(1e-4 * upper, upper, n_nodes)
    w = np.gradient(t)  # Lebesgue weights on the log-spaced axis
    return t, w


def _worst_ratio(gamma: float, A: float, px: np.ndarray, pmin: float, wQ: float,
                 phi_mean: float, T2: np.ndarray) -> Tuple[float, float]:
    """max over x of (gamma A)^{p(x)} / (max(1, |Q|^{1 - p(x)/pmin}) phi_mean
    + T2), and the share of the tail term T2 in that denominator."""
    lhs = (gamma * A) ** px
    T1 = np.maximum(1.0, wQ ** (1.0 - px / pmin)) * phi_mean
    ratio = lhs / (T1 + T2 + 1e-300)
    k = int(np.argmax(ratio))
    return float(ratio[k]), float(T2[k] / (T1[k] + T2[k] + 1e-300))


def check_key_modular(bank: FunctionBank, seed: int = 7, cubes_per_level: int = 8,
                      x_per_cube: int = 24, pairs: int = 40) -> CheckReport:
    """(gamma_m avg_Q |f| w)^{p(x)} <= c [main term + damped tail term].

    Grid mode uses dyadic cubes and p(.) on the box; the interval modes run on
    a (0, b] axis with the three (omega, phi, g) right-hand sides.  Inputs are
    normalized to unit weighted Luxemburg norm first; the share of the tail
    term at each worst ratio is reported so the binding term is visible.  The
    estimate holds with constant 1, and that is the gate: every constant <= 1.
    """
    m = 2.0
    spec = bank.spec
    h = spec.spacing
    xg = spec.axis_coords()
    constants: Dict[str, float] = {}
    tail_share: Dict[str, float] = {}
    members = ["gauss_w1", "modgauss_f4", "weier_s05", "bandnoise_a"]

    weights = {"w1": np.ones(spec.shape),
               "wgauss": 0.5 + np.exp(-xg ** 2)}
    for pname in ("p_const2", "p_sin"):
        p = bank.exponents[pname]
        pv = p.grid_values()
        cl, cd = reciprocal_constants(p)
        c_inv = max(cl, cd if cd is not None else 0.0)
        gamma = math.exp(-4.0 * m * c_inv)
        for wname, wv in weights.items():
            worst, worst_share = 0.0, 0.0
            for name in members:
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
                        T2 = min(sideQ ** m, 1.0) * ((np.e + np.abs(xg[xi])) ** (-m) + mean_ey)
                        ratio, share = _worst_ratio(gamma, A, pv[xi], pQmin, wQ, meanP, T2)
                        if ratio > worst:
                            worst, worst_share = ratio, share
            key = f"grid_{pname}_{wname}"
            constants[key] = worst
            tail_share[key] = worst_share

    # interval variants on a (0, b] axis
    rng = np.random.default_rng(seed)

    def run_interval(t, wleb, pvals, gamma, phi_expo, g_term):
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
                wQ = float(np.sum(wleb[sl]))
                A = float(np.sum(fa[sl] * wleb[sl]) / wQ)
                expo = phi_expo[sl] if np.ndim(phi_expo) else phi_expo
                phi_mean = float(np.sum(fa[sl] ** expo * wleb[sl]) / wQ)
                xsel = np.linspace(i, j, min(j - i + 1, 16)).astype(int)
                px = pvals[xsel]
                ratio, share = _worst_ratio(gamma, A, px, float(pvals.min()), wQ, phi_mean,
                                            g_term(t[xsel], px, sl, float(t[j]), wQ))
                if ratio > worst:
                    worst, worst_share = ratio, share
        return worst, worst_share

    # (key, axis, weights, p, gamma, exponent of phi, tail term), in rng order
    t, wleb = _interval_axis(1.0)
    tb, wlebb = _interval_axis(16.0)
    variants = []
    for pname, pvals, p0 in (("pup", 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0),
                             ("pdown", 2.5 - 0.4 / np.log(np.e + 1.0 / t), 2.5)):
        c_inv = float(np.max(np.abs(1.0 / pvals - 1.0 / p0) * np.log(np.e + 1.0 / t)))
        gamma = math.exp(-4.0 * m * c_inv)
        variants += [
            (f"interval_p_{pname}", t, wleb, pvals, gamma, pvals,
             lambda tx, px, sl, b, wQ: min(b ** m, 1.0) * (
                 (np.e + 1.0 / tx) ** (-m)
                 + float(np.sum(((np.e + 1.0 / t[sl]) ** (-m)) * wleb[sl]) / wQ))),
            (f"interval_p0_{pname}", t, wleb, pvals, gamma, p0, lambda tx, px, sl, b, wQ, p0=p0:
             min(b ** m, 1.0) * (np.e + 1.0 / tx) ** (-m) * (px < p0).astype(float))]
    # decay at infinity on (0, 16]
    for pname, pvals, pinf in (("below", 2.0 - 0.8 / np.log(np.e + tb), 2.0),
                               ("above", 2.0 + 0.8 / np.log(np.e + tb), 2.0)):
        c_dec = float(np.max(np.abs(1.0 / pvals - 1.0 / pinf) * np.log(np.e + tb)))
        variants.append((f"interval_pinf_{pname}", tb, wlebb, pvals, math.exp(-m * c_dec), pinf,
                         lambda tx, px, sl, b, wQ, pinf=pinf:
                         (np.e + tx) ** (-m) * (px < pinf).astype(float)))
    for key, *variant in variants:
        constants[key], tail_share[key] = run_interval(*variant)

    return CheckReport(
        "key-modular", seed,
        [{"m": m, "cubes_per_level": cubes_per_level, "members": members}],
        constants, [Gate("worst_constant", max(constants.values()), 1.0)],
        details={"tail_term_share_at_worst": tail_share},
    )


# ---------------------------------------------------------------------------
# mixed-norm equivalences on the t-axis (octave blocks vs fixed exponent)
# ---------------------------------------------------------------------------


def check_mixed_equivalence(bank: FunctionBank,
                            seed: int = 7, draws: int = 12) -> CheckReport:
    """Octave-block mixed norm vs (sum ||f_v||^{q(0)})^{1/q(0)}, the masked-cube
    variant with t^{-alpha}, and the 2^{-|k-v|delta} smoothing bound."""
    ladder = bank.ladder
    V, J = ladder.octaves, ladder.nodes_per_octave   # np.repeat(a, J): a[v-1] on octave v
    rng = np.random.default_rng(seed)
    constants: Dict[str, float] = {}

    # part A: scalar level norms
    qc = bank.exponents["q_const2"]
    ql = bank.exponents["q_logdecay"]
    const_dev, ratio_lo, ratio_hi = 0.0, np.inf, 0.0
    for _ in range(draws):
        a = rng.random(V)
        a[rng.random(V) < 0.3] = 0.0
        if a.sum() == 0:
            a[0] = 1.0
        g = np.repeat(a, J)
        rhs = float(np.sum(a ** 2.0) ** 0.5)
        lhs_c = octave_block_norm(g, ladder, qc)
        const_dev = max(const_dev, abs(lhs_c / (math.log(2.0) ** 0.5 * rhs) - 1.0))
        r = octave_block_norm(g, ladder, ql) / rhs
        ratio_lo, ratio_hi = min(ratio_lo, r), max(ratio_hi, r)
    constants["scalar_qconst_normalized_dev"] = const_dev
    constants["scalar_qlog_ratio_max"] = ratio_hi
    constants["scalar_qlog_ratio_min"] = ratio_lo

    # single-level sweep: ratio must not depend on the level
    sweep = []
    for v in range(1, V + 1):
        a = np.zeros(V)
        a[v - 1] = 1.0
        sweep.append(octave_block_norm(np.repeat(a, J), ladder, ql))
    sweep = np.asarray(sweep)
    constants["single_level_spread"] = float(sweep.max() / sweep.min())

    # part B: cube-masked grid functions with t^-alpha weights, against
    # the discrete coefficient norm; level 0 is zero
    spec = bank.spec
    member_cycle = ["gauss_w1", "modgauss_f4", "bandnoise_a", "smoothstep_w1"]
    levels = [np.zeros(spec.shape)]
    for v in range(1, V + 1):
        f = bank[member_cycle[(v - 1) % len(member_cycle)]]
        # the cube just right of the origin
        levels.append(np.where(cube_mask(spec, DyadicCube(v, (0,))), np.abs(f.samples), 0.0))
    alpha = bank.exponents["alpha_signchange"].grid_values()
    p = bank.exponents["p_sin"].grid_values()
    lhs, rhs = (level_sequence_norm(spec, ladder, levels, alpha, p, ql, form)
                for form in ("continuous", "discrete"))
    constants["masked_cube_ratio"] = lhs / rhs

    # part C: smoothing map contracts up to a constant
    worst = {0.5: 0.0, 1.0: 0.0}
    for delta in (0.5, 1.0):
        for _ in range(draws):
            a = rng.random(V)
            g = np.array([sum(2.0 ** (-abs(k - v) * delta) * a[k] for k in range(V))
                          for v in range(V)])
            num = octave_block_norm(np.repeat(g, J), ladder, ql)
            den = octave_block_norm(np.repeat(a, J), ladder, ql)
            worst[delta] = max(worst[delta], num / den)
        constants[f"smoothing_delta={delta}"] = worst[delta]

    return CheckReport(
        "mixed-equivalence", seed,
        [{"draws": draws, "octaves": V}],
        constants,
        [Gate("scalar_qconst_dev", const_dev, 1e-9),
         Gate("scalar_qlog_ratio_min", ratio_lo, 0.5, ">="),
         Gate("scalar_qlog_ratio_max", ratio_hi, 2.0),
         Gate("single_level_spread", constants["single_level_spread"], 1.10)],
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
    zeros.  The fine-scale decay exponent `check_kernel_decay` measures does
    not follow K: 1.84, 2.11, 2.16 and 2.25 at K = 1-4 (ROADMAP item 6).
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
    # sup-normalize over derivative orders 0..K at the atom's own scale.  The
    # atom then passes `validate_atom` by construction: it is divided by the
    # measured inflation, its moments are projected out with the sums that
    # validation takes, and its bump lies inside 2Q
    a = GridFunction(spec, 2.0 ** (v / 2) * psi)
    inflation = validate_atom(a, v, (mloc,), K, -1, gamma=3.0).validation["derivative_inflation"]
    return GridFunction(spec, a.samples / inflation)


def check_kernel_decay(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """sup_z |mu_t * rho(z)| (1+|z|)^N ~ t^{M+1} for mu with M+1 vanishing
    moments; M = -1 shows no gain.  The FJ variant regresses both decay
    exponents of band transforms of a constructed atom; its fine-scale gate
    catches a gross roughness such as a spike, not the atom's K."""
    N_poly, moment_orders = 4.0, (-1, 1, 3)
    spec = bank.spec
    x = spec.axis_coords()
    rho = from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    Frho = spectrum(rho)
    constants: Dict[str, float] = {}
    slopes: Dict[str, float] = {}
    t_list = 2.0 ** (-np.arange(2, 7, dtype=float))
    for M in moment_orders:
        pair = build_local_mean_pair(spec, bank.ladder, S=M)
        conv = band_rows(spec, pair.multipliers(t_list), Frho)
        sups = [float(np.max(np.abs(c) * (1 + np.abs(x)) ** N_poly)) for c in conv]
        slope = float(np.polyfit(np.log(t_list), np.log(sups), 1)[0])
        slopes[f"M={M}"] = slope
        constants[f"M={M}_sup_at_tmin"] = sups[-1] / t_list[-1] ** max(M + 1, 0)

    # FJ variant: constructed atom, both level-offset branches
    v, mloc, K, L = 3, 2, 2, 0
    atom = _fj_atom(spec, v, mloc, K, L)
    frame = build_resolution_of_unity(spec, bank.ladder)
    Fa = spectrum(atom)
    xQ = 2.0 ** (-v) * mloc

    def band_sups(js, dilations):
        # sup of the level-j bands of the atom, weighted by decay away from x_Q
        conv = band_rows(spec, frame.multipliers(2.0 ** (-js)), Fa)
        return [float(np.max(np.abs(c) * (1 + d * np.abs(x - xQ)) ** N_poly))
                for c, d in zip(conv, dilations)]

    fine_j = np.arange(v, v + 5)
    fine_sups = band_sups(fine_j, np.full(fine_j.shape, 2.0 ** v))
    slope_K = float(-np.polyfit(fine_j, np.log2(fine_sups), 1)[0])
    coarse_j = np.arange(0, v + 1)
    coarse_sups = band_sups(coarse_j, 2.0 ** coarse_j)
    slope_L = float(np.polyfit(coarse_j, np.log2(coarse_sups), 1)[0])
    slopes["fj_fine_scale"] = slope_K
    slopes["fj_coarse_scale"] = slope_L

    return CheckReport(
        "kernel-decay", seed,
        [{"N_poly": N_poly, "moment_orders": list(moment_orders),
          "fj_atom": {"v": v, "m": mloc, "K": K, "L": L}}],
        constants,
        [Gate("slope_M=-1", abs(slopes["M=-1"]), 0.2),
         Gate("slope_M=1", slopes["M=1"], 1.8, ">="),
         Gate("slope_M=3", slopes["M=3"], 3.8, ">="),
         Gate("fj_fine_scale", abs(slope_K - K), 0.3),
         Gate("fj_coarse_scale", abs(slope_L - (L + spec.dimension + 1)), 0.3)],
        details={"slopes": slopes},
    )

# ---------------------------------------------------------------------------
# embedding inequalities
# ---------------------------------------------------------------------------


def check_embeddings(bank: FunctionBank, seed: int = 7) -> CheckReport:
    """Target norm <= c * source norm for the three embedding regimes.

    Constant-exponent configurations run bank-wide (profiles at alpha = 0 are
    shared and rescaled); the variable-exponent spot checks run on a member
    subset.  The gate is the identity: the rescaled profile path must agree
    with a full norm call.
    """
    variable_members = 6
    spec, ladder = bank.spec, bank.ladder
    frame = build_resolution_of_unity(spec, ladder)
    p2 = bank.exponents["p_const2"]
    p4 = bank.exponents["p_const4"]
    q2, q3 = bank.exponents["q_const2"], bank.exponents["q_const3"]
    ql2, ql3 = bank.exponents["q_logdecay"], bank.exponents["q_logdecay3"]
    alpha0 = bank.exponents["alpha_const0"]
    names = bank.names()
    subset = names[:variable_members]

    base2 = {n: lp_profile(bank[n], frame, alpha0, p2) for n in names}
    base4 = {n: lp_profile(bank[n], frame, alpha0, p4) for n in names}

    def const_alpha(base, s, q):
        """member -> its norm at constant smoothness s, rescaled from the
        alpha = 0 base profile"""
        return lambda n: base[n].level0 + t_norm(base[n].values * ladder.t ** (-s), q,
                                                 ladder, "variable")

    def variable(alpha, p):
        """member -> its direct norm with smoothness alpha and integrability p"""
        return lambda n: besov_norm(bank[n], frame, alpha, p, ql2).value

    def worst_ratio(source, target, members=names):
        """max of target / source over the members with a nonzero source, 0 if none"""
        return max([target(n) / src for n in members if (src := source(n)) > 0], default=0.0)

    # variable-exponent spot checks on the subset
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

    # chain: norms finite against Schwartz-type seminorms; pairing bound
    x = spec.axis_coords()
    g0 = from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    smooth = ["gauss_w05", "gauss_w1", "gauss_w2", "modgauss_f4", "dgauss", "gausspair"]

    def seminorm(n):
        """max over gpow, beta <= 2 of sup |x|^gpow |D^beta f|"""
        ders = [spectral_derivative(bank[n], beta).abs_samples() for beta in (0, 1, 2)]
        return max(float(np.max(np.abs(x) ** gpow * d)) for gpow in (0, 1, 2) for d in ders)

    def pairing(n):
        return abs(integrate(GridFunction(spec, bank[n].samples * g0.samples)))

    b05 = const_alpha(base2, 0.5, q2)
    constants: Dict[str, float] = {
        # (i) elementary embedding: alpha drops by 0.2, any (q0, q1)
        "elementary_alpha_margin": worst_ratio(const_alpha(base2, 0.5, ql3),
                                               const_alpha(base2, 0.3, ql2)),
        # (ii) q-monotone: q0(0)=2 <= q1(0)=3, same alpha and p
        "q_monotone_full_form": worst_ratio(b05, const_alpha(base2, 0.5, q3)),
        # (iii) Sobolev line: p0=2 -> p1=4, alpha0 = alpha1 + 1/4 (n = 1)
        "sobolev_line_p2_to_p4": worst_ratio(const_alpha(base2, 0.75, ql2),
                                             const_alpha(base4, 0.5, ql2)),
        "elementary_variable": worst_ratio(variable(a_var_up, p_sin), variable(a_var, p_sin),
                                           subset),
        "sobolev_variable": worst_ratio(variable(a_sob0, p_sin), variable(a_sob1, p_sin1),
                                        subset),
    }

    # identity: the rescaled alpha = 0 profile path against a full norm call
    # at alpha = 1/2; separate Luxemburg solves agree to their RTOL only
    a05 = bank.exponents["alpha_const05"]
    ratios = np.array([b05(n) / besov_norm(bank[n], frame, a05, p2, q2, "direct").value
                       for n in subset])
    constants["identity_embedding"] = float(ratios[np.argmax(np.abs(ratios - 1.0))])
    constants["schwartz_to_space"] = worst_ratio(seminorm, b05, smooth)
    constants["space_to_distributions"] = worst_ratio(b05, pairing, smooth)

    return CheckReport(
        "embeddings", seed,
        [{"variable_members": subset}],
        constants, [Gate("identity", abs(constants["identity_embedding"] - 1.0), 1e-9)],
    )


# ---------------------------------------------------------------------------
# norm-form equivalence matrix
# ---------------------------------------------------------------------------


def check_norm_equivalences(bank: FunctionBank, seed: int = 7,
                            members: Optional[Sequence[str]] = None,
                            max_points: int = 2048) -> CheckReport:
    """All norm forms across two frames; gates the worst pairwise spread
    max(r, 1/r) of each exponent configuration at ratio_window.

    The maximal-function forms are the costly ones: the pruned maximal
    function evaluates only the block pairs that can set a maximum, usually
    a few percent, but its worst case is still O(N^2) per scale node.  The
    working resolution therefore stays capped at max_points (the matrix's
    reference resolution); a larger input bank is rebuilt at the cap with
    the same ladder and seed.
    """
    peetre_a, S, ratio_window = 2.0, 2, 10.0
    if bank.spec.points_per_axis > max_points:
        bank = make_bank(
            make_grid(bank.spec.dimension, bank.spec.box_length, max_points),
            bank.ladder, seed=bank.seed)
    spec, ladder = bank.spec, bank.ladder
    frame1 = build_resolution_of_unity(spec, ladder, BumpParams(6))
    frame2 = build_resolution_of_unity(spec, ladder, BumpParams(10))
    pair = build_local_mean_pair(spec, ladder, S=S)
    forms = [("direct", frame1, "direct"), ("direct_frame2", frame2, "direct"),
             ("q0", frame1, "q0"), ("discretized", frame1, "discretized"),
             ("peetre", frame1, "peetre"), ("local_prime", pair, "local_mean_prime"),
             ("local_double_prime", pair, "local_mean_double_prime")]
    if members is None:
        members = bank.names()
    configs = [
        ("const", bank.exponents["alpha_const05"], bank.exponents["p_const2"],
         bank.exponents["q_const2"]),
        ("variable", bank.exponents["alpha_signchange"], bank.exponents["p_sin"],
         bank.exponents["q_logdecay"]),
    ]
    constants: Dict[str, float] = {}
    gates: List[Gate] = []
    matrices: Dict[str, dict] = {}
    for label, alpha, p, q in configs:
        worst_spread = 0.0
        worst_entry = None
        per_member = {}
        for name in members:
            f = bank[name]
            # one profile per (kernel, maximal step), shared by its t-norms
            profiles, vals = {}, {}
            for entry, kernel, form in forms:
                key = (id(kernel), FORMS[form].maximal)
                rep = besov_norm(f, kernel, alpha, p, q, form, a=peetre_a,
                                 profile=profiles.get(key))
                profiles[key], vals[entry] = rep.profile, rep.value
            if all(v == 0 for v in vals.values()):
                continue
            names_f = list(vals)
            for i, ni in enumerate(names_f):
                for nj in names_f[i + 1:]:
                    # a zero norm beside a nonzero one is an infinite spread
                    r = vals[ni] / vals[nj] if vals[ni] and vals[nj] else 0.0
                    spread = max(r, 1 / r) if r else math.inf
                    if spread > worst_spread:
                        worst_spread = spread
                        worst_entry = {"member": name, "pair": (ni, nj), "ratio": r}
            per_member[name] = vals
        constants[f"{label}_max_pairwise_spread"] = worst_spread
        gates.append(Gate(f"{label}_pairwise_spread", worst_spread, ratio_window))
        matrices[label] = {"worst": worst_entry, "values": per_member}
    return CheckReport(
        "norm-equivalences", seed,
        [{"members": list(members), "peetre_a": peetre_a, "S": S,
          "ratio_window": ratio_window}],
        constants, gates,
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


def run_checks(which: Sequence[str], bank: FunctionBank,
               seed: int = 7) -> List[CheckReport]:
    """Run the named checks (or all) on the bank, timing each call, and
    return the reports sorted by check id."""
    names = sorted(CHECKS) if "all" in which else list(which)
    for n in names:
        if n not in CHECKS:
            raise ParameterError(f"unknown check {n!r}; known: {sorted(CHECKS)}")
    reports = []
    for n in names:
        start = perf_counter()
        report = CHECKS[n](bank, seed=seed)
        report.runtime_s = perf_counter() - start
        reports.append(report)
    return sorted(reports, key=lambda r: r.check_id)
