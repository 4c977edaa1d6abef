"""Closed-loop benchmark of the vbesov CLI, one in-process client.

    python3 perfbench/run.py --workload norm-light --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
`src/vbesov` there.  Each request is one `vbesov.cli.main(argv)` call; its
output files are compared with the references under `perfbench/refs`.
A run issues one whole round of the workload's requests, then goes on
request by request (each round in a new order drawn from the seed) while
the next request is expected to end within `--seconds` of request time.
The latency metrics are taken over each distinct request's median latency,
so every distinct request counts once however often it ran, and a run that
stops partway through a round measures the same mix as one that stops at
its end.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one round in
which every request runs untraced and traced back to back, and reports the
per-layer metrics of the traced calls.  The last line of standard output is
the result object; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 9        # spread over the run, so they sample its whole span
TAIL_BEYOND = 10        # requests beyond the reported tail percentile

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402


def import_library():
    """Import vbesov from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vbesov", "cli.py")):
        raise ImportError(f"no vbesov sources under {SRC}")
    sys.path.insert(0, SRC)
    from vbesov import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vbesov imported from {cli.__file__}, not {SRC}")
    return cli


class Session:
    """Everything a request needs: the CLI, configs on disk, references."""

    def __init__(self, workload: wl.Workload, cli_seed: int,
                 refs: Optional[wl.References]):
        self.cli = import_library()
        self.workload = workload
        self.cli_seed = cli_seed
        self.refs = refs
        self.dir = os.path.join(WORK, str(os.getpid()))
        self.out = {e: os.path.join(self.dir, f"out_{e}") for e in wl.EXPONENTS}
        self.configs: Dict[wl.Request, str] = {}
        self.config_texts: Dict[str, str] = {}
        os.makedirs(self.dir, exist_ok=True)
        for req in workload.requests:
            name = workload.config_name(req)
            path = os.path.join(self.dir, name)
            if name not in self.config_texts:
                with open(path, "w") as fh:
                    fh.write(workload.config_text(req, self.out[req.exponents]))
                self.config_texts[name] = workload.config_text(
                    req, f"<work>/out_{req.exponents}")
            self.configs[req] = path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    def call(self, req: wl.Request):
        """Run one request; (latency in s, output or None, error or None)."""
        out = self.out[req.exponents]
        for path in wl.output_paths(req, out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        argv = self.workload.argv(req, self.configs[req], self.cli_seed)
        captured = io.StringIO()
        rc, error = None, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli.main(argv)
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - t0
        if error is None and rc != 0:
            error = f"exit code {rc}: {captured.getvalue().strip()[-300:]}"
        if error is not None:
            return latency, None, error
        try:
            got = wl.read_output(req, out)
        except (OSError, ValueError, KeyError) as exc:
            return latency, None, f"unreadable output: {exc!r}"
        return latency, got, None


class Loop:
    """Latencies and failures of the requests one run issues."""

    def __init__(self, session: Session):
        self.session = session
        self.samples: List[Tuple[str, float]] = []     # (request id, latency)
        self.by_class: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def issue(self, req: wl.Request) -> None:
        s = self.session
        latency, got, error = s.call(req)
        if error is None:
            error = s.refs.check(req, s.cli_seed, got)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{req.rid}: {error}")
            print(f"request failed: {req.rid}: {error}", file=sys.stderr)
        self.samples.append((req.rid, latency))
        self.by_class.setdefault(f"{req.command}/{req.exponents}", []).append(latency)

    def latencies(self) -> List[float]:
        return [lat for _, lat in self.samples]

    def per_request(self) -> Tuple[List[float], float]:
        """Each distinct request's median latency, sorted, and their sum: the
        time of one round.  The median over a request's repeats keeps a burst
        of host noise during one of them out of the figures."""
        by_rid: Dict[str, List[float]] = {}
        for rid, lat in self.samples:
            by_rid.setdefault(rid, []).append(lat)
        medians = sorted(statistics.median(v) for v in by_rid.values())
        return medians, sum(medians)


def quantile(values: List[float], q: float) -> float:
    """The q-quantile of sorted `values`, interpolated linearly between the
    two values around it, so that it never rests on a single request."""
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def probe_setup(workload: str, seed: int) -> float:
    """Process start to first-request readiness, in a fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def tail_quantile(samples: int) -> float:
    """The highest quantile with TAIL_BEYOND distinct requests beyond it, but
    never below the upper quartile: a workload of a few long requests would
    otherwise report a low quantile or its single noisiest one."""
    return max(1.0 - TAIL_BEYOND / samples, 0.75)


def environment() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vbesov")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "source_sha256": digest.hexdigest()}


def input_properties(session: Session) -> dict:
    from vbesov.config import RunConfig
    defaults = RunConfig()
    w = session.workload
    reqs = w.requests
    props = {"requests_per_round": len(reqs),
             "variable_p_share": sum(r.exponents == "variable" for r in reqs) / len(reqs)}
    maximal = [r for r in reqs if r.form in ("peetre", "local_mean_prime")]
    if maximal:
        octaves = w.grid.get("octaves", defaults.octaves)
        # the ladder nodes plus the level-0 term
        props["maximal"] = {"requests": len(maximal),
                            "points": w.grid.get("points", defaults.points),
                            "scale_nodes": octaves * defaults.nodes_per_octave + 1}
    if w.name in session.refs.values["inputs"]:
        table = session.refs.values["inputs"][w.name]
        props["round_trip"] = {r.member: table[wl.ref_seed_key(r, session.cli_seed)][r.member]
                               for r in reqs}
    return props


def run_untraced(session: Session, args):
    """One whole round, then requests while each is expected (from its time
    in the first round) to end within `seconds` of request time; the set-up
    probes are spread over the run."""
    loop = Loop(session)
    rng = random.Random(args.seed)
    reqs = session.workload.requests
    expected: Dict[wl.Request, float] = {}
    probes: List[float] = []
    busy = 0.0
    for i in itertools.count():
        if i % len(reqs) == 0:
            order = rng.sample(reqs, len(reqs))
        req = order[i % len(reqs)]
        if i >= len(reqs) and busy + expected[req] > args.seconds:
            break
        if len(probes) < SETUP_PROBES and busy >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
        t0 = perf_counter()
        loop.issue(req)
        elapsed = perf_counter() - t0
        expected.setdefault(req, elapsed)
        busy += elapsed
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))
    return loop, probes


def run_traced(session: Session, seed: int):
    """One round; each request untraced and traced, alternating which first."""
    from tracer import Tracer, layer_metrics
    plain, traced = Loop(session), Loop(session)
    tracer = Tracer()
    order = list(session.workload.requests)
    random.Random(seed).shuffle(order)
    for i, req in enumerate(order):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not is_traced:
                plain.issue(req)
                continue
            tracer.install()
            try:
                traced.issue(req)
            finally:
                tracer.uninstall()
    traced_wall = sum(traced.latencies())
    metrics = layer_metrics(tracer.spans, traced_wall)
    metrics["trace.overhead_s"] = traced_wall - sum(plain.latencies())
    return plain, traced, metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    try:
        session = Session(workload, wl.cli_seed_for(args.seed), wl.References.load())
    except (ImportError, OSError) as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return report(session, args)
    finally:
        session.close()


def report(session: Session, args) -> int:
    info = {"workload": args.workload, "seed": args.seed,
            "cli_seed": session.cli_seed, "trace": args.trace,
            "environment": environment(), "configs": session.config_texts,
            "inputs": input_properties(session)}
    if args.trace:
        from tracer import layer_unit
        plain, traced, metrics = run_traced(session, args.seed)
        attempted = plain.attempted + traced.attempted
        failures = plain.failures + traced.failures
        result_metrics = {k: {"value": v, "unit": layer_unit(k)}
                          for k, v in metrics.items()}
    else:
        loop, setup = run_untraced(session, args)
        attempted, failures = loop.attempted, loop.failures
        medians, round_s = loop.per_request()
        tail_q = tail_quantile(len(medians))
        info.update({"rounds": attempted / len(session.workload.requests),
                     "setup_probes_s": setup,
                     "latency_tail": {"percentile": 100.0 * tail_q,
                                      "samples": len(medians)},
                     "latency_p50_by_class_s": {k: statistics.median(v)
                                                for k, v in sorted(loop.by_class.items())}})
        result_metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "requests_per_s": {"value": (attempted - len(failures)) / attempted
                               * len(session.workload.requests) / round_s, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(medians), "unit": "s"},
            "latency_tail_s": {"value": quantile(medians, tail_q), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    info.update({"attempted": attempted, "failed": len(failures),
                 "failed_share": len(failures) / attempted,
                 "failures": failures[:10]})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
