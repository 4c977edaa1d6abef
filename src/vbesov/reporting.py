"""Deterministic JSON/CSV emission for check reports and norm results.

Identical inputs and seed produce byte-identical JSON; the run timestamp is
a separate top-level field so consumers can strip it before comparing.
Floats are serialized with repr (shortest round-trip, up to 17 significant
digits).
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from typing import Iterable


def _sanitize(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def dump_json(document: dict, path: str, volatile: dict = None) -> None:
    """Write the document; run-dependent data (wall clock, runtimes) all live
    inside the single `timestamp` field so the rest is reproducible."""
    stamp = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             **_sanitize(volatile or {})}
    doc = {"timestamp": stamp, **_sanitize(document)}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def strip_timestamp(path: str) -> bytes:
    """The file's raw bytes with the value of the top-level `timestamp`
    object masked (for comparisons).  dump_json writes that object flat, at
    one space of indent, so the first `{...}` after the key is all of it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return re.sub(rb'\n "timestamp": \{[^{}]*\}', b'\n "timestamp": {}', raw, count=1)


def write_rollup_csv(reports: Iterable, path: str) -> None:
    """One row per check: id, passed, the smallest margin of its gates (NaN
    if any is NaN), violations.  Runtimes are run-dependent, so they live
    only in each check's JSON timestamp."""
    import numpy as np
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check_id", "passed", "n_configurations", "worst_margin",
                    "n_violations"])
        for r in reports:
            w.writerow([r.check_id, r.passed, len(r.configurations),
                        repr(float(np.min([g.margin for g in r.gates]))),
                        len(r.violations)])
