"""Command-line front end.

Subcommands: gen-bank, norm, decompose, synthesize, verify, report.
Exit codes: 0 success (and, for verify, no violations); 2 unparseable config
or inadmissible exponents; 3 theorem-hypothesis violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import atoms as atoms_mod
from . import grid as grid_mod
from .bank import make_bank, make_member
from .besov import FORMS, besov_norm
from .config import ConfigError, RunConfig, emit_config, parse_config
from .errors import (AdmissibilityError, HypothesisViolationError, ParameterError,
                     VbesovError)
from .frame import (BumpParams, LocalMeanPair, build_local_mean_pair,
                    build_resolution_of_unity)
from .luxemburg import luxemburg_norm
from .reporting import dump_json, write_rollup_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "form", None):
        cfg.form = args.form
    return cfg


def _member(cfg: RunConfig, spec):
    name = cfg.member
    if name.endswith(".csv"):
        return grid_mod.read_csv(name, spec)
    return make_member(spec, name, cfg.seed)


def cmd_gen_bank(args) -> int:
    cfg = _load_config(args)
    bank = make_bank(cfg.grid(), cfg.ladder(), cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    manifest = {"seed": cfg.seed, "members": {}, "config": emit_config(cfg)}
    for name in bank.names():
        path = os.path.join(cfg.out, f"bank_{name}.csv")
        grid_mod.write_csv(bank[name], path)
        manifest["members"][name] = path
    dump_json(manifest, os.path.join(cfg.out, "bank_manifest.json"))
    print(f"wrote {len(bank.members)} bank members to {cfg.out}")
    return EXIT_OK


def cmd_norm(args) -> int:
    cfg = _load_config(args)
    spec, ladder = cfg.grid(), cfg.ladder()
    f = _member(cfg, spec)
    p = cfg.p_field(spec)
    alpha = cfg.alpha_field(spec)
    q = cfg.q_field(ladder)
    if cfg.form not in FORMS:
        raise ParameterError(f"unknown form {cfg.form!r}")
    if FORMS[cfg.form].kernel is LocalMeanPair:
        kernel = build_local_mean_pair(spec, ladder, cfg.kernel_S, cfg.kernel_epsilon)
    else:
        kernel = build_resolution_of_unity(spec, ladder, BumpParams(cfg.profile_order))
    report = besov_norm(f, kernel, alpha, p, q, cfg.form, a=cfg.peetre_a)
    lux = luxemburg_norm(f, p)
    doc = {"member": cfg.member, **report.to_dict(), "lebesgue_norm": lux.to_dict(),
           "seed": cfg.seed}
    out_path = os.path.join(cfg.out, f"norm_{os.path.basename(cfg.member)}_{cfg.form}.json")
    dump_json(doc, out_path)
    print(f"{cfg.member} {cfg.form} norm = {report.value!r} -> {out_path}")
    return EXIT_OK


def _analyze(cfg: RunConfig):
    """The configured member and its atomic decomposition."""
    spec = cfg.grid()
    f = _member(cfg, spec)
    frame = build_resolution_of_unity(spec, cfg.ladder(), BumpParams(cfg.profile_order))
    return f, atoms_mod.analyze(f, frame, K=cfg.atom_K, L=cfg.atom_L, gamma=cfg.atom_gamma,
                                target_alpha=cfg.alpha_field(spec))


def cmd_decompose(args) -> int:
    cfg = _load_config(args)
    _, dec = _analyze(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"coeffs_{cfg.member}.csv")
    atoms_mod.export_coefficients(dec, csv_path)
    lam = np.concatenate([lat.ravel() for lat in dec.levels])
    dump_json({"member": cfg.member, "levels": dec.V, "n_coefficients": lam.size,
               "nonzero": int((lam > 0).sum()), "max_lambda": float(lam.max()),
               "C_phi": dec.C_phi, "seed": cfg.seed, "csv": csv_path},
              os.path.join(cfg.out, f"decompose_{cfg.member}.json"))
    print(f"decomposed {cfg.member}: {int((lam > 0).sum())} nonzero coefficients -> {csv_path}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    f, dec = _analyze(cfg)
    spec = f.spec
    rec = atoms_mod.synthesize(dec)
    resid = np.sqrt(grid_mod.integrate(
        grid_mod.GridFunction(spec, np.abs(rec.samples - f.samples) ** 2)))
    ref = np.sqrt(grid_mod.integrate(grid_mod.GridFunction(spec, np.abs(f.samples) ** 2)))
    os.makedirs(cfg.out, exist_ok=True)
    rec_path = os.path.join(cfg.out, f"reconstruction_{cfg.member}.csv")
    grid_mod.write_csv(rec, rec_path)
    rel = resid / ref if ref > 0 else 0.0
    dump_json({"member": cfg.member, "l2_residual": float(resid),
               "l2_relative_residual": float(rel), "seed": cfg.seed,
               "reconstruction": rec_path},
              os.path.join(cfg.out, f"synthesize_{cfg.member}.json"))
    print(f"round trip {cfg.member}: relative L2 residual = {float(rel)!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if args.quick:
        cfg.points, cfg.octaves, cfg.nodes_per_octave = 1024, 6, 12
    from .checks import run_checks   # checks.py is large; only verify needs it
    bank = make_bank(cfg.grid(), cfg.ladder(), cfg.seed)
    reports = run_checks(args.check or ["all"], bank, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    any_violation = False
    for r in reports:
        dump_json(r.to_dict(), os.path.join(cfg.out, f"check_{r.check_id}.json"),
                  volatile={"runtime_s": round(r.runtime_s, 3)})
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check_id}: {status} ({len(r.violations)} violations, "
              f"{r.runtime_s:.1f}s)")
        any_violation |= (not r.passed) or bool(r.violations)
    write_rollup_csv(reports, os.path.join(cfg.out, "checks.csv"))
    return EXIT_OK if not any_violation else EXIT_FAIL


def cmd_report(args) -> int:
    cfg = _load_config(args)
    import glob
    import json
    rows = []
    for path in sorted(glob.glob(os.path.join(cfg.out, "check_*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        stamp = doc.get("timestamp", {})
        rows.append({"check_id": doc["check_id"], "passed": doc["passed"],
                     "n_violations": len(doc["violations"]),
                     "runtime_s": stamp.get("runtime_s", 0.0)
                     if isinstance(stamp, dict) else 0.0})
    if not rows:
        print(f"no check outputs found under {cfg.out}")
        return EXIT_FAIL
    dump_json({"checks": rows, "all_passed": all(r["passed"] for r in rows)},
              os.path.join(cfg.out, "rollup.json"))
    for r in rows:
        print(f"{r['check_id']}: {'pass' if r['passed'] else 'FAIL'}")
    print(f"rollup -> {os.path.join(cfg.out, 'rollup.json')}")
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_FAIL


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing keeps
    no state in it, so every request reuses it."""
    ap = argparse.ArgumentParser(
        prog="vbesov",
        description="Variable-exponent smoothness norms, frames, atoms, and "
                    "the numerical verification suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        return p

    command("gen-bank", cmd_gen_bank, "write the seeded function bank")
    command("norm", cmd_norm, "compute a smoothness norm").add_argument(
        "--form", choices=list(FORMS))
    command("decompose", cmd_decompose, "atomic analysis to coefficient CSV")
    command("synthesize", cmd_synthesize, "atomic round trip and residual")
    p = command("verify", cmd_verify, "run verification checks")
    p.add_argument("--check", action="append",
                   help="check id (repeatable) or 'all'")
    p.add_argument("--quick", action="store_true",
                   help="reduced resolution over the config: points = 1024, "
                        "octaves = 6, nodes_per_octave = 12")
    command("report", cmd_report, "roll up prior verify outputs")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VbesovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
