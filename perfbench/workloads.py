"""Workload definitions: generated configs, the request round, reference checks.

A workload is a fixed round of distinct `vbesov` CLI requests.  Every
request names a subcommand, a bank member, an exponent configuration and
(for `norm`) a form.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
VALUES_PATH = os.path.join(REFS_DIR, "values.json")
COEFFS_PATH = os.path.join(REFS_DIR, "coeffs.json.gz")

# The CLI seed only changes the band-noise members.  References exist for
# these seeds, so a run passes REF_SEEDS[seed % len(REF_SEEDS)] to the CLI.
DEFAULT_CLI_SEED = 7
REF_SEEDS = (7, 11, 19, 42)
SEEDED_MEMBERS = frozenset({"bandnoise_a", "bandnoise_b", "bandnoise_c", "bandnoise_d"})

EXPONENTS = {
    "const": {"p": "2", "alpha": "1 / 2", "q": "2"},
    "variable": {"p": "3 + sin(2 * pi * x / 16)",
                 "alpha": "3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                 "q": "2 + 1 / log(e + 1 / t)"},
}

# tolerances of the correctness check
NORM_RTOL = 1e-8            # Luxemburg RTOL is 1e-10
COEFF_RTOL = 1e-12
ROUND_TRIP_GATE = 1.6e-9    # round-trip residual gate of the roadmap
ROUND_TRIP_SLACK = 1.01


@dataclass(frozen=True)
class Request:
    command: str            # "norm" | "decompose" | "synthesize"
    member: str
    exponents: str          # key of EXPONENTS
    form: Optional[str] = None

    @property
    def rid(self) -> str:
        """Reference key; the seed-free part of the request's identity."""
        return "/".join(x for x in (self.command, self.exponents, self.member,
                                    self.form) if x)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: Dict[str, int]    # config overrides: points, octaves
    requests: Tuple[Request, ...]

    def config_name(self, req: Request) -> str:
        return f"{self.name}_{req.exponents}_{req.member}.cfg"

    def config_text(self, req: Request, out: str) -> str:
        lines = [f"{k} = {v}" for k, v in EXPONENTS[req.exponents].items()]
        lines += [f"{k} = {v}" for k, v in self.grid.items()]
        lines += [f"member = {req.member}", f"out = {out}"]
        return "\n".join(lines) + "\n"

    def argv(self, req: Request, config_path: str, cli_seed: int) -> List[str]:
        argv = [req.command, "--config", config_path, "--seed", str(cli_seed)]
        if req.form:
            argv += ["--form", req.form]
        return argv


def _norm_light() -> Workload:
    members = ("gauss_w05", "modgauss_f16", "smoothstep_w1", "weier_s03",
               "weier_s12", "tone_k40", "bandnoise_a", "bandnoise_c")
    forms = ("direct", "discretized", "q0", "local_mean_double_prime")
    reqs = [Request("norm", m, e, f) for m in members for e in EXPONENTS for f in forms]
    # coefficients do not depend on the exponents; one decompose per member
    reqs += [Request("decompose", m, "variable") for m in members]
    return Workload("norm-light", {}, tuple(reqs))


def _norm_maximal() -> Workload:
    members = ("gauss_w05", "bandnoise_a")
    forms = ("peetre", "local_mean_prime")
    reqs = tuple(Request("norm", m, e, f) for m in members for e in EXPONENTS for f in forms)
    return Workload("norm-maximal", {"points": 2048}, reqs)


def _atoms_roundtrip() -> Workload:
    # octaves = 7: level-8 cubes do not align with a 2048-point grid.  A dense
    # member (every coefficient nonzero, ~12 s a request) is left out: it
    # would run once a run, and its single latency would set the figures.
    members = ("gauss_w1", "tone_k40", "bandnoise_a")
    reqs = tuple(Request("synthesize", m, "variable") for m in members)
    return Workload("atoms-roundtrip", {"points": 2048, "octaves": 7}, reqs)


WORKLOADS = {w.name: w for w in (_norm_light(), _norm_maximal(), _atoms_roundtrip())}


def cli_seed_for(seed: int) -> int:
    return REF_SEEDS[seed % len(REF_SEEDS)]


def ref_seed_key(req: Request, cli_seed: int) -> str:
    """Deterministic members share one reference across CLI seeds."""
    return str(cli_seed) if req.member in SEEDED_MEMBERS else "any"


# -- outputs ----------------------------------------------------------------


def output_paths(req: Request, out: str) -> List[str]:
    """Files the request writes; removed before it runs, read after."""
    if req.command == "norm":
        return [os.path.join(out, f"norm_{req.member}_{req.form}.json")]
    if req.command == "decompose":
        return [os.path.join(out, f"coeffs_{req.member}.csv"),
                os.path.join(out, f"decompose_{req.member}.json")]
    return [os.path.join(out, f"synthesize_{req.member}.json"),
            os.path.join(out, f"reconstruction_{req.member}.csv")]


def read_coefficients(path: str) -> Tuple[List[str], List[float]]:
    """Keys ("v:m...") and lambda values of a coefficient CSV, in file order."""
    keys, vals = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            keys.append(":".join(row[:-1]))
            vals.append(float(row[-1]))
    return keys, vals


def read_output(req: Request, out: str):
    """The value the check compares: a norm, a coefficient list, a residual."""
    paths = output_paths(req, out)
    if req.command == "norm":
        with open(paths[0]) as fh:
            return json.load(fh)["value"]
    if req.command == "decompose":
        return read_coefficients(paths[0])
    with open(paths[0]) as fh:
        return json.load(fh)["l2_relative_residual"]


# -- references -------------------------------------------------------------


class References:
    """Reference outputs recorded from the library by record.py."""

    def __init__(self, values: dict, coeffs: dict):
        self.values = values
        self.coeffs = coeffs

    @classmethod
    def load(cls) -> "References":
        with open(VALUES_PATH) as fh:
            values = json.load(fh)
        with gzip.open(COEFFS_PATH, "rt") as fh:
            coeffs = json.load(fh)
        return cls(values, coeffs)

    def check(self, req: Request, cli_seed: int, got) -> Optional[str]:
        """None when `got` matches the reference, else the reason it fails."""
        skey = ref_seed_key(req, cli_seed)
        if req.command == "decompose":
            ref = self.coeffs["values"][skey][req.member]
            keys, vals = got
            if keys != self.coeffs["keys"]:
                return "coefficient keys differ"
            for k, (a, b) in enumerate(zip(vals, ref)):
                if (a == 0.0) != (b == 0.0):
                    return f"zero set differs at {keys[k]}"
                if abs(a - b) > COEFF_RTOL * abs(b):
                    return f"coefficient {keys[k]} = {a!r}, reference {b!r}"
            return None
        ref = self.values["outputs"][skey][req.rid]
        if req.command == "norm":
            if abs(got - ref) > NORM_RTOL * abs(ref):
                return f"norm {got!r}, reference {ref!r}"
            return None
        limit = max(ROUND_TRIP_GATE, ROUND_TRIP_SLACK * ref)
        if not got <= limit:
            return f"round-trip residual {got!r} above {limit!r}"
        return None
