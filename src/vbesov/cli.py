"""Command-line front end.

Subcommands: gen-bank, norm, decompose, synthesize, verify, report.
Exit codes: 0 success (and, for verify, no violations); 2 unparseable config
or inadmissible exponents; 3 theorem-hypothesis violation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import atoms as atoms_mod
from . import grid as grid_mod
from .bank import make_bank
from .besov import besov_norm, local_mean_norm
from .checks import run_checks
from .config import ConfigError, RunConfig, emit_config, parse_config
from .errors import (AdmissibilityError, HypothesisViolationError,
                     ParameterError, VbesovError)
from .frame import BumpParams, build_local_mean_pair, build_resolution_of_unity
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
    if getattr(args, "jobs", None):
        cfg.jobs = args.jobs
    if getattr(args, "form", None):
        cfg.form = args.form
    return cfg


def _setup(cfg: RunConfig):
    spec = cfg.grid()
    ladder = cfg.ladder()
    bank = make_bank(spec, ladder, cfg.seed)
    return spec, ladder, bank


def _member(cfg: RunConfig, bank, spec):
    name = cfg.member
    if name.endswith(".csv"):
        return grid_mod.read_csv(name, spec)
    if name not in bank.members:
        raise ParameterError(f"unknown bank member {name!r}; "
                             f"known: {', '.join(bank.names())}")
    return bank[name]


def cmd_gen_bank(args) -> int:
    cfg = _load_config(args)
    spec, ladder, bank = _setup(cfg)
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
    spec, ladder, bank = _setup(cfg)
    f = _member(cfg, bank, spec)
    p = cfg.p_field(spec)
    alpha = cfg.alpha_field(spec)
    q = cfg.q_field(ladder)
    frame = build_resolution_of_unity(spec, ladder, BumpParams(cfg.profile_order))
    if cfg.form in ("local_mean_prime", "local_mean_double_prime"):
        pair = build_local_mean_pair(spec, cfg.kernel_S, cfg.kernel_epsilon)
        variant = "prime" if cfg.form.endswith("_prime") and "double" not in cfg.form else "double_prime"
        report = local_mean_norm(f, pair, alpha, p, q, cfg.peetre_a, variant, ladder)
    else:
        report = besov_norm(f, frame, alpha, p, q, cfg.form, a=cfg.peetre_a)
    lux = luxemburg_norm(f, p)
    doc = {"member": cfg.member, "form": report.form, "value": report.value,
           "level0": report.profile.level0, "parameters": report.parameters,
           "lebesgue_norm": lux.to_dict(), "seed": cfg.seed}
    out_path = os.path.join(cfg.out, f"norm_{os.path.basename(cfg.member)}_{cfg.form}.json")
    dump_json(doc, out_path)
    print(f"{cfg.member} {cfg.form} norm = {report.value!r} -> {out_path}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = _load_config(args)
    spec, ladder, bank = _setup(cfg)
    f = _member(cfg, bank, spec)
    frame = build_resolution_of_unity(spec, ladder, BumpParams(cfg.profile_order))
    alpha = cfg.alpha_field(spec)
    dec = atoms_mod.analyze(f, frame, K=cfg.atom_K, L=cfg.atom_L,
                            gamma=cfg.atom_gamma, target_alpha=alpha,
                            keep_atoms=False)
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"coeffs_{cfg.member}.csv")
    atoms_mod.export_coefficients(dec, csv_path)
    lam = np.array(list(dec.coefficients.values()))
    dump_json({"member": cfg.member, "levels": dec.V, "n_coefficients": lam.size,
               "nonzero": int((lam > 0).sum()), "max_lambda": float(lam.max()),
               "C_phi": dec.C_phi, "seed": cfg.seed, "csv": csv_path},
              os.path.join(cfg.out, f"decompose_{cfg.member}.json"))
    print(f"decomposed {cfg.member}: {int((lam > 0).sum())} nonzero coefficients -> {csv_path}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    spec, ladder, bank = _setup(cfg)
    f = _member(cfg, bank, spec)
    frame = build_resolution_of_unity(spec, ladder, BumpParams(cfg.profile_order))
    alpha = cfg.alpha_field(spec)
    dec = atoms_mod.analyze(f, frame, K=cfg.atom_K, L=cfg.atom_L,
                            gamma=cfg.atom_gamma, target_alpha=alpha,
                            keep_atoms=True)
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
    spec, ladder, bank = _setup(cfg)
    which = args.check or ["all"]
    reports = run_checks(which, bank=bank, seed=cfg.seed, jobs=cfg.jobs)
    os.makedirs(cfg.out, exist_ok=True)
    any_violation = False
    for r in reports:
        doc = r.to_dict()
        runtime = doc.pop("runtime_s")
        dump_json(doc, os.path.join(cfg.out, f"check_{r.check_id}.json"),
                  volatile={"runtime_s": runtime})
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vbesov",
        description="Variable-exponent smoothness norms, frames, atoms, and "
                    "the numerical verification suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--jobs", type=int, help="worker pool size for verify")

    p = sub.add_parser("gen-bank", help="write the seeded function bank")
    common(p)
    p.set_defaults(func=cmd_gen_bank)

    p = sub.add_parser("norm", help="compute a smoothness norm")
    common(p)
    p.add_argument("--form", choices=["direct", "discretized", "q0", "peetre",
                                      "local_mean_prime", "local_mean_double_prime"])
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("decompose", help="atomic analysis to coefficient CSV")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synthesize", help="atomic round trip and residual")
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument("--check", action="append",
                   help="check id (repeatable) or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="roll up prior verify outputs")
    common(p)
    p.set_defaults(func=cmd_report)
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
