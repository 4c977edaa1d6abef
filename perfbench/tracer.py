"""Span tracer installed from outside the library.

`Tracer.install()` replaces each traced function at every `vbesov` module
attribute that holds it (and traced methods on their class), so calls made
through any import alias land in a timing wrapper.  `uninstall()` puts the
originals back.  Spans (layer, op, start, end, parent, note) stay in memory;
`layer_metrics` turns them into per-layer counts and times.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _fft_points(out):
    # spectrum returns an array, from_spectrum a GridFunction
    return getattr(out, "samples", out).size


def _solve_iters(out):
    return out.iterations


def _maximal_points(out):
    return out.size


def _analysis(out):
    nonzero = sum(1 for lam in out.coefficients.values() if lam != 0.0)
    materialized = sum(1 for key in out.atoms if out.coefficients[key] != 0.0)
    return (len(out.coefficients), nonzero, materialized)


# (layer, op, module, attribute path, note) -- the note reads a count from
# the call's return value
TARGETS = (
    ("cli", "request", "vbesov.cli", "main", None),
    ("config", "parse", "vbesov.config", "parse_config", None),
    ("config", "parse", "vbesov.config", "RunConfig.p_field", None),
    ("config", "parse", "vbesov.config", "RunConfig.alpha_field", None),
    ("config", "parse", "vbesov.config", "RunConfig.q_field", None),
    ("bank", "make", "vbesov.bank", "make_bank", None),
    ("exponents", "field", "vbesov.exponents", "make_exponent_field", None),
    ("frame", "build", "vbesov.frame", "build_resolution_of_unity", None),
    ("frame", "build", "vbesov.frame", "build_local_mean_pair", None),
    ("frame", "kernel", "vbesov.frame", "CalderonFrame.phi_t_spectrum", None),
    ("frame", "kernel", "vbesov.frame", "CalderonFrame.level0_transform", None),
    ("frame", "kernel", "vbesov.frame", "LocalMeanPair.k_spectrum_at", None),
    ("frame", "kernel", "vbesov.frame", "LocalMeanPair.k0_spectrum_at", None),
    ("frame", "kernel", "vbesov.frame", "RadialProfile.phi_hat", None),
    ("frame", "kernel", "vbesov.frame", "RadialProfile.psi_hat", None),
    ("frame", "kernel", "vbesov.frame", "RadialProfile.Phi_hat", None),
    ("frame", "kernel", "vbesov.frame", "RadialProfile.Psi_hat", None),
    ("frame", "kernel", "vbesov.frame", "synthesize_phi_t", None),
    ("frame", "kernel", "vbesov.frame", "synthesize_Phi", None),
    ("grid", "fft", "vbesov.grid", "spectrum", _fft_points),
    ("grid", "fft", "vbesov.grid", "from_spectrum", _fft_points),
    ("grid", "csv_write", "vbesov.grid", "write_csv", None),
    ("grid", "integrate", "vbesov.grid", "integrate", None),
    ("grid", "sample", "vbesov.grid", "from_callable", None),
    ("luxemburg", "solve", "vbesov.luxemburg", "solve_luxemburg", _solve_iters),
    ("luxemburg", "t_norm", "vbesov.luxemburg", "t_norm", None),
    ("luxemburg", "t_norm", "vbesov.luxemburg", "octave_block_norm", None),
    ("luxemburg", "lebesgue", "vbesov.luxemburg", "luxemburg_norm", None),
    ("besov", "profile", "vbesov.besov", "lp_profile", None),
    ("besov", "profile", "vbesov.besov", "peetre_profile", None),
    ("besov", "profile", "vbesov.besov", "local_mean_norm", None),
    ("besov", "norm", "vbesov.besov", "besov_norm", None),
    ("besov", "maximal", "vbesov.besov", "peetre_maximal", _maximal_points),
    ("atoms", "analyze", "vbesov.atoms", "analyze", _analysis),
    ("atoms", "synthesize", "vbesov.atoms", "synthesize", None),
    ("atoms", "export", "vbesov.atoms", "export_coefficients", None),
    ("reporting", "dump", "vbesov.reporting", "dump_json", None),
)

LAYERS = ("cli", "config", "bank", "exponents", "frame", "grid", "luxemburg",
          "besov", "atoms", "reporting")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []     # [layer, op, start, end, parent, note]
        self._stack: List[int] = []
        self._patched: List[tuple] = []  # (owner, attribute, original)

    def _wrap(self, fn: Callable, layer: str, op: str,
              note: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, op, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vbesov" or name.startswith("vbesov."))]
        for layer, op, modname, path, note in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, layer, op, note))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, layer, op, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _outermost(spans: List[list], i: int) -> bool:
    """True when no ancestor of span i has the same layer and op."""
    key = (spans[i][0], spans[i][1])
    j = spans[i][4]
    while j >= 0:
        if (spans[j][0], spans[j][1]) == key:
            return False
        j = spans[j][4]
    return True


def _under(spans: List[list], i: int, layer: str, op: str) -> int:
    """Index of the nearest ancestor of span i with this layer and op, or -1."""
    j = spans[i][4]
    while j >= 0:
        if spans[j][0] == layer and spans[j][1] == op:
            return j
        j = spans[j][4]
    return -1


def layer_metrics(spans: List[list], traced_wall_s: float) -> Dict[str, float]:
    """Per-layer counts and times.  `<layer>.<op>_s` is the inclusive time of
    the outermost spans of that op; `<layer>.self_s` is the layer's time not
    covered by child spans."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: Dict[tuple, int] = {}
    incl: Dict[tuple, float] = {}
    covered = 0.0
    for i, s in enumerate(spans):
        key = (s[0], s[1])
        self_s[s[0]] += dur[i] - child[i]
        calls[key] = calls.get(key, 0) + 1
        if _outermost(spans, i):
            incl[key] = incl.get(key, 0.0) + dur[i]
        parent_layer = spans[s[4]][0] if s[4] >= 0 else "cli"
        if s[0] != "cli" and parent_layer == "cli":
            covered += dur[i]

    def c(layer, op):
        return calls.get((layer, op), 0)

    def t(layer, op):
        return incl.get((layer, op), 0.0)

    fft_points = sum(s[5] for s in spans if s[1] == "fft")
    solve_iters = sum(s[5] for s in spans if s[1] == "solve")
    maximal_points = sum(s[5] for s in spans if s[1] == "maximal")
    maximal_pairs = sum(s[5] ** 2 for s in spans if s[1] == "maximal")
    analyses = [(i, s[5]) for i, s in enumerate(spans) if s[1] == "analyze"]
    cubes = sum(a[0] for _, a in analyses)
    nonzero = sum(a[1] for _, a in analyses)
    materialized = sum(a[2] for _, a in analyses)
    building = {i for i, a in analyses if a[2] > 0}
    atom_ffts = sum(1 for i, s in enumerate(spans)
                    if s[1] == "fft" and _under(spans, i, "atoms", "analyze") in building)

    m = {
        "config.parse_calls": c("config", "parse"),
        "config.parse_s": t("config", "parse"),
        "config.self_s": self_s["config"],
        "bank.make_calls": c("bank", "make"),
        "bank.make_s": t("bank", "make"),
        "bank.self_s": self_s["bank"],
        "exponents.field_calls": c("exponents", "field"),
        "exponents.field_s": t("exponents", "field"),
        "exponents.self_s": self_s["exponents"],
        "frame.build_calls": c("frame", "build"),
        "frame.build_s": t("frame", "build"),
        "frame.kernel_calls": c("frame", "kernel"),
        "frame.kernel_s": t("frame", "kernel"),
        "frame.self_s": self_s["frame"],
        "grid.fft_calls": c("grid", "fft"),
        "grid.fft_points": fft_points,
        "grid.fft_s": t("grid", "fft"),
        "grid.csv_write_s": t("grid", "csv_write"),
        "grid.self_s": self_s["grid"],
        "luxemburg.solve_calls": c("luxemburg", "solve"),
        "luxemburg.solve_iters": solve_iters,
        "luxemburg.iters_per_solve": solve_iters / max(1, c("luxemburg", "solve")),
        "luxemburg.solve_s": t("luxemburg", "solve"),
        "luxemburg.t_norm_s": t("luxemburg", "t_norm"),
        "luxemburg.self_s": self_s["luxemburg"],
        "besov.profile_calls": c("besov", "profile"),
        "besov.profile_self_s": sum(dur[i] - child[i] for i, s in enumerate(spans)
                                    if s[0] == "besov" and s[1] == "profile"),
        "besov.maximal_calls": c("besov", "maximal"),
        "besov.maximal_points": maximal_points,
        "besov.maximal_pairs_computed": maximal_pairs,
        "besov.maximal_s": t("besov", "maximal"),
        "besov.maximal_points_per_s": maximal_points / t("besov", "maximal")
        if maximal_points else 0.0,
        "besov.self_s": self_s["besov"],
        "atoms.analyze_calls": c("atoms", "analyze"),
        "atoms.analyze_s": t("atoms", "analyze"),
        "atoms.cubes": cubes,
        "atoms.nonzero_share": nonzero / cubes if cubes else 0.0,
        "atoms.atoms_materialized": materialized,
        "atoms.fft_per_atom": atom_ffts / materialized if materialized else 0.0,
        "atoms.synthesize_s": t("atoms", "synthesize"),
        "atoms.export_s": t("atoms", "export"),
        "atoms.self_s": self_s["atoms"],
        "cli.self_s": self_s["cli"],
        "reporting.dump_calls": c("reporting", "dump"),
        "reporting.dump_s": t("reporting", "dump"),
        "trace.coverage": covered / traced_wall_s if traced_wall_s > 0 else 0.0,
    }
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", ".coverage")):
        return "share"
    if name.endswith(("iters_per_solve", "fft_per_atom")):
        return "ratio"
    return "count"
