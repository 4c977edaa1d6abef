"""Record the reference outputs the benchmark checks requests against.

    python3 perfbench/record.py

Runs every request of every workload once per reference CLI seed (members
that do not depend on the seed only once) and writes perfbench/refs/.
Re-record only when a change is meant to alter the library's numbers.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402
from run import Session  # noqa: E402


def main() -> int:
    outputs = {}
    coeffs = {"keys": None, "values": {}}
    inputs = {}
    atoms = wl.WORKLOADS["atoms-roundtrip"]
    # cube counts of the round-trip members come from `decompose` on their grid
    probe = wl.Workload(atoms.name, atoms.grid, tuple(
        wl.Request("decompose", r.member, r.exponents) for r in atoms.requests))
    for cli_seed in wl.REF_SEEDS:
        for workload in (*wl.WORKLOADS.values(), probe):
            session = Session(workload, cli_seed, None)
            try:
                for req in workload.requests:
                    skey = wl.ref_seed_key(req, cli_seed)
                    if skey == "any" and cli_seed != wl.DEFAULT_CLI_SEED:
                        continue
                    latency, got, error = session.call(req)
                    if error is not None:
                        raise SystemExit(f"{req.rid} failed: {error}")
                    print(f"seed {cli_seed} {workload.name} {req.rid}: {latency:.2f}s",
                          file=sys.stderr)
                    if workload is probe:
                        keys, vals = got
                        nonzero = sum(v != 0.0 for v in vals)
                        inputs.setdefault(workload.name, {}).setdefault(skey, {})[
                            req.member] = {"cubes": len(vals), "nonzero": nonzero,
                                           "nonzero_share": nonzero / len(vals)}
                    elif req.command == "decompose":
                        keys, vals = got
                        if coeffs["keys"] not in (None, keys):
                            raise SystemExit("coefficient keys differ between members")
                        coeffs["keys"] = keys
                        coeffs["values"].setdefault(skey, {})[req.member] = vals
                    else:
                        outputs.setdefault(skey, {})[req.rid] = got
            finally:
                session.close()
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    with open(wl.VALUES_PATH, "w") as fh:
        json.dump({"ref_seeds": list(wl.REF_SEEDS), "outputs": outputs,
                   "inputs": inputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with gzip.GzipFile(wl.COEFFS_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(coeffs, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
