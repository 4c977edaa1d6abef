#!/usr/bin/env python3
"""Write every CLI output of a fixed request set into one directory.

Run it in two checkouts, say a parent commit and a change, each into its own
directory, and compare the two with `diff -r`: an empty diff shows that the
change kept every output byte.  The volatile `timestamp` block of each JSON
document is emptied first, and every path inside a document is relative to
the output directory, so nothing else differs between runs.

    PYTHONPATH=src python scripts/parity.py --out /tmp/parity_change

With `--against DIR`, the outputs are then compared with those of an earlier
run in DIR: for each file that differs, the largest absolute difference of
its numeric CSV columns and JSON numbers (a string that parses as a float
counts as one), and after them the files that are byte-identical.  The
script then exits 1 when any file differs or exists on only one side.

The request set:
- `norm` for the six forms x the 20 bank members x the `const` and
  `variable` exponents, at N = 4096 (N = 2048 for the two maximal forms);
- `decompose` (N = 4096, 8 octaves) and `synthesize` (N = 2048, 7 octaves)
  on DECOMPOSE_MEMBERS and SYNTHESIZE_MEMBERS, with the variable exponents;
- `verify --quick --check all`, with its `checks.csv`;
- the text of `vbesov norm --help`;
- `sequence_norms.json`, the coefficient norm `sequence_norm_b`, which no
  command prints, for SYNTHESIZE_MEMBERS at N = 2048 and 7 octaves, both
  exponent sets, both forms and both signs of the n/2 term;
- `errors.txt`, the exit code and the last stderr line of `vbesov norm` on
  each input of ERROR_CASES, which it must reject.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

from vbesov import cli
from vbesov.bank import MEMBER_NAMES
from vbesov.atoms import sequence_norm_b
from vbesov.besov import FORMS
from vbesov.config import RunConfig
from vbesov.reporting import strip_timestamp

EXPONENTS = {
    "const": {"p": "2", "alpha": "1 / 2", "q": "2"},
    "variable": {"p": "3 + sin(2 * pi * x / 16)",
                 "alpha": "3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                 "q": "2 + 1 / log(e + 1 / t)"},
}
MAXIMAL_FORMS = ("peetre", "local_mean_prime")
DECOMPOSE_MEMBERS = ("gauss_w05", "modgauss_f16", "smoothstep_w1", "weier_s03",
                     "weier_s12", "tone_k40", "bandnoise_a", "bandnoise_c")
# smoothstep_w1's level 7 is only partly nonzero: it covers the masked synthesis
SYNTHESIZE_MEMBERS = ("gauss_w1", "tone_k40", "bandnoise_a", "smoothstep_w1")
SEED = 7
# (name, config text, further arguments) of inputs that `norm` must reject
ERROR_CASES = (
    ("q-at-0-differs-from-q0", "q = 3\n", []),
    ("2d-with-a-bank-member", "dimension = 2\npoints = 64\nbox_length = 8\n", []),
    ("negative-seed-in-config", "seed = -1\n", []),
    ("negative-seed-option", "", ["--seed", "-1"]),
    ("p-below-1", "p = 1 / 2\n", []),
    ("alpha-at-least-S-plus-1", "alpha = 5 / 2\nkernel_S = 1\n",
     ["--form", "local_mean_double_prime"]),
    ("unknown-member", "member = nosuch\n", []),
    ("bad-expression", "q = 2 + $\n", []),
)


def _config(name: str, exponents: str, out: str, **grid) -> str:
    """Write a config under configs/ and return its path."""
    lines = [f"{k} = {v}" for k, v in {**EXPONENTS[exponents], **grid}.items()]
    path = os.path.join("configs", f"{name}.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines + [f"out = {out}"]) + "\n")
    return path


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--seed", str(SEED)])
    if code != cli.EXIT_OK:
        raise SystemExit(f"vbesov {' '.join(argv)} exited with {code}")


def _errors() -> str:
    """One line per ERROR_CASES entry: its name, the exit code and the last
    stderr line (argparse writes its usage before it; every other error is
    one line)."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, extra in ERROR_CASES:
            path = os.path.join(tmp, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.write(text + f"out = {os.path.join(tmp, 'out')}\n")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(["norm", "--config", path] + extra)
                except SystemExit as exc:
                    code = exc.code
            lines.append(f"{name}\t{code}\t{err.getvalue().splitlines()[-1]}\n")
    return "".join(lines)


def _sequence_norms() -> dict:
    """repr of sequence_norm_b per (exponents, member, form, sign)."""
    out = {}
    for exponents in EXPONENTS:
        for member in SYNTHESIZE_MEMBERS:
            cfg = RunConfig(**EXPONENTS[exponents], member=member, points=2048, octaves=7,
                            seed=SEED)
            _, dec = cli._analyze(cfg)
            fields = cfg.alpha_field(dec.spec), cfg.p_field(dec.spec), cfg.q_field(dec.ladder)
            for form in ("continuous", "discrete"):
                for sign in (1.0, -1.0):
                    out[f"{exponents} {member} {form} {sign:+g}"] = repr(
                        sequence_norm_b(dec, *fields, form, sign))
    return out


def _as_float(x) -> Optional[float]:
    """x as a float when it is a number or a string of one, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _json_numbers(doc, path: str, out: Dict[str, List[float]]) -> None:
    """The numbers of a JSON document by key path, lists flattened."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            _json_numbers(val, f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for val in doc:
            _json_numbers(val, path, out)
    elif _as_float(doc) is not None:
        out.setdefault(path, []).append(float(doc))


def _numbers(path: str) -> Dict[str, List[float]]:
    """Numeric CSV columns by header name, or JSON numbers by key path."""
    out: Dict[str, List[float]] = {}
    if path.endswith(".json"):
        with open(path) as fh:
            _json_numbers(json.load(fh), "", out)
    elif path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for j, name in enumerate(rows[0]):
            col = [_as_float(row[j]) for row in rows[1:]]
            if None not in col:
                out[name] = col
    return out


def _files(root: str) -> List[str]:
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def compare(here: str, there: str) -> bool:
    """Print, for each file of `here` that differs from `there`, the largest
    absolute difference per numeric column or key, then the byte-identical
    files; True when every file of either side is byte-identical to the
    other's."""
    mine, theirs = _files(here), _files(there)
    identical = []
    for rel in sorted(set(mine) - set(theirs)):
        print(f"only here: {rel}")
    for rel in sorted(set(theirs) - set(mine)):
        print(f"only in {there}: {rel}")
    for rel in sorted(set(mine) & set(theirs)):
        a, b = os.path.join(here, rel), os.path.join(there, rel)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                identical.append(rel)
                continue
        na, nb = _numbers(a), _numbers(b)
        diffs = []
        for key in sorted(set(na) | set(nb)):
            if len(na.get(key, ())) != len(nb.get(key, ())):
                diffs.append(f"{key} differs in count")
                continue
            worst = max((abs(x - y) for x, y in zip(na[key], nb[key])), default=0.0)
            if worst:
                diffs.append(f"{key} {worst:.3g}")
        print(f"differs: {rel}: max |diff| " + (", ".join(diffs) or "0 (text only)"))
    print(f"byte-identical: {len(identical)} files")
    for rel in identical:
        print(f"  {rel}")
    return len(identical) == len(set(mine) | set(theirs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="output directory (created)")
    ap.add_argument("--against", help="an earlier run's output directory to compare with")
    args = ap.parse_args()
    against = None if args.against is None else os.path.abspath(args.against)
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    os.makedirs("configs", exist_ok=True)

    os.environ["COLUMNS"] = "80"
    with open("norm_help.txt", "w") as fh, contextlib.redirect_stdout(fh):
        with contextlib.suppress(SystemExit):
            cli.main(["norm", "--help"])

    for exponents in EXPONENTS:
        for member in MEMBER_NAMES:
            for form in FORMS:
                points = 2048 if form in MAXIMAL_FORMS else 4096
                cfg = _config(f"norm_{exponents}_{member}_{points}", exponents,
                              os.path.join("norm", exponents), member=member, points=points)
                _run(["norm", "--config", cfg, "--form", form])
    for member in DECOMPOSE_MEMBERS:
        _run(["decompose", "--config",
              _config(f"decompose_{member}", "variable", "decompose", member=member)])
    for member in SYNTHESIZE_MEMBERS:
        _run(["synthesize", "--config",
              _config(f"synthesize_{member}", "variable", "synthesize",
                      member=member, points=2048, octaves=7)])
    with contextlib.redirect_stdout(io.StringIO()):   # its lines carry runtimes
        cli.main(["verify", "--quick", "--check", "all", "--out", "verify",
                  "--seed", str(SEED)])

    for root, _, files in os.walk("."):
        for name in files:
            if name.endswith(".json"):
                path = os.path.join(root, name)
                masked = strip_timestamp(path)
                with open(path, "wb") as fh:
                    fh.write(masked)
    with open("sequence_norms.json", "w") as fh:
        json.dump(_sequence_norms(), fh, indent=1)
        fh.write("\n")
    with open("errors.txt", "w") as fh:
        fh.write(_errors())
    print(f"wrote the outputs to {os.getcwd()}")
    if against is not None and not compare(".", against):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
