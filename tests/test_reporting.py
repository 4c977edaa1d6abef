import csv
import json
import os

import pytest

from vbesov.cli import main
from vbesov.reporting import dump_json, strip_timestamp

# sorted keys put the timestamp between "passed" and "violations"
DOC = {"check_id": "probe", "constants": {"a": 1.5}, "passed": False,
       "violations": [{"config": "b", "constant": 2.5}]}


def test_strip_timestamp_ignores_only_the_timestamp(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    dump_json(DOC, a, volatile={"runtime_s": 0.125})
    dump_json(DOC, b, volatile={"runtime_s": 7.5,
                                "written_at": "2000-01-01T00:00:00Z"})
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() != fb.read()
    assert strip_timestamp(a) == strip_timestamp(b)


@pytest.mark.parametrize("old, new", [(b"1.5", b"1.6"), (b"2.5", b"2.6")],
                         ids=["before-timestamp", "after-timestamp"])
def test_strip_timestamp_sees_a_change_outside_the_timestamp(tmp_path, old, new):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    dump_json(DOC, a)
    with open(a, "rb") as fh:
        raw = fh.read()
    assert raw.count(old) == 1
    with open(b, "wb") as fh:
        fh.write(raw.replace(old, new))
    assert strip_timestamp(a) != strip_timestamp(b)


def test_checks_csv_constants_are_plain_floats(tmp_path):
    out = str(tmp_path / "out")
    main(["verify", "--quick", "--check", "kernel-decay", "--check", "hardy",
          "--out", out])
    with open(os.path.join(out, "checks.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check_id"] for r in rows] == ["hardy", "kernel-decay"]
    for r in rows:
        with open(os.path.join(out, f"check_{r['check_id']}.json")) as fh:
            gates = json.load(fh)["gates"]
        assert float(r["worst_margin"]) == min(g["margin"] for g in gates) > 0
