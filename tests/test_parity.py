"""`scripts/parity.py --against` passes only when both output trees are
byte-identical, or with `--rtol` when they differ only in numbers within it."""

import importlib.util
import os
import sys

PARITY_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "parity.py")


def _parity():
    spec = importlib.util.spec_from_file_location("parity_script", PARITY_PATH)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_compare_fails_on_a_changed_or_one_sided_file(tmp_path, capsys):
    parity = _parity()
    here, there = tmp_path / "here", tmp_path / "there"
    for root in (here, there):
        (root / "norm").mkdir(parents=True)
        (root / "norm" / "a.json").write_text('{"value": 1.0}\n')
    assert parity.compare(str(here), str(there))

    (there / "norm" / "a.json").write_text('{"value": 1.5}\n')
    assert not parity.compare(str(here), str(there))
    assert "differs: norm/a.json: max |diff| value 0.5" in capsys.readouterr().out

    (there / "norm" / "a.json").write_text('{"value": 1.0}\n')
    for root, side in ((here, "only here"), (there, "only in")):
        (root / "extra.csv").write_text("x\n1\n")
        assert not parity.compare(str(here), str(there))
        assert f"{side}" in capsys.readouterr().out
        (root / "extra.csv").unlink()
    assert parity.compare(str(here), str(there))


def test_rtol_passes_numbers_within_it_and_fails_on_text(tmp_path, capsys):
    parity = _parity()
    here, there = tmp_path / "here", tmp_path / "there"
    for root in (here, there):
        root.mkdir()
    (here / "a.json").write_text('{"value": 1.0000000000000002, "form": "direct"}\n')
    (there / "a.json").write_text('{"value": 1.0, "form": "direct"}\n')
    (here / "b.csv").write_text("x,lambda\n1,2.0000000000000004\n")
    (there / "b.csv").write_text("x,lambda\n1,2.0\n")
    assert not parity.compare(str(here), str(there))
    assert parity.compare(str(here), str(there), rtol=1e-13)
    out = capsys.readouterr().out
    assert "differs: a.json: max |diff| value 2.22e-16 (rel 2.22e-16)" in out
    assert "within rtol 1e-13: 2 files" in out
    assert not parity.compare(str(here), str(there), rtol=1e-17)

    # a text-only difference fails at any tolerance, with or without a
    # number that moved as well
    (here / "a.json").write_text('{"value": 1.0, "form": "peetre"}\n')
    assert not parity.compare(str(here), str(there), rtol=1.0)
    assert "(text differs)" in capsys.readouterr().out
    (here / "a.json").write_text('{"value": 1.0000000000000002, "form": "peetre"}\n')
    assert not parity.compare(str(here), str(there), rtol=1.0)
    # so does a key whose count of numbers changed, and a number off zero
    (here / "a.json").write_text('{"value": [1.0, 1.0], "form": "direct"}\n')
    assert not parity.compare(str(here), str(there), rtol=1.0)
    (here / "b.csv").write_text("x,lambda\n1,1e-300\n")
    (there / "b.csv").write_text("x,lambda\n1,0.0\n")
    (here / "a.json").write_text('{"value": 1.0, "form": "direct"}\n')
    assert not parity.compare(str(here), str(there), rtol=1.0)
    assert "lambda 1e-300 (rel inf)" in capsys.readouterr().out


def test_errors_hold_the_exit_code_and_last_stderr_line_of_each_bad_input():
    rows = [line.split("\t") for line in _parity()._errors().splitlines()]
    assert [(name, code) for name, code, _ in rows] == [
        ("q-at-0-differs-from-q0", "2"), ("2d-with-a-bank-member", "1"),
        ("negative-seed-in-config", "2"), ("negative-seed-option", "2"), ("p-below-1", "2"),
        ("alpha-at-least-S-plus-1", "3"), ("unknown-member", "1"), ("bad-expression", "2"),
        ("epsilon-not-positive", "1"), ("csv-empty", "1"), ("csv-row-without-im", "1"),
        ("csv-non-numeric", "1")]
    assert all(last and "Traceback" not in last for _, _, last in rows)
    assert rows[8][2] == "error: epsilon must be a positive finite number, got -1.0"
    assert rows[-1][2] == "error: CSV row 2, column re: 'half' is not a number"


def test_rtol_compares_counts_exactly_and_lists_them(tmp_path, capsys):
    parity = _parity()
    here, there = tmp_path / "here", tmp_path / "there"
    for root in (here, there):
        root.mkdir()
    (here / "a.json").write_text('{"iterations": 3, "value": 1.0000000000000002}\n')
    (there / "a.json").write_text('{"iterations": 2, "value": 1.0}\n')
    # one step more is a changed count at any tolerance, not 50 % relative
    assert not parity.compare(str(here), str(there), rtol=1.0)
    out = capsys.readouterr().out
    assert "changed counts: 1\n  iterations: 2 -> 3 over 1 files\n" in out
    assert "  a.json: iterations [2] -> [3]\n" in out
    # the totals show the direction of the change, over the files it touched
    (here / "c.json").write_text('{"iterations": [4, 1]}\n')
    (there / "c.json").write_text('{"iterations": [5, 3]}\n')
    assert not parity.compare(str(here), str(there), rtol=1.0)
    assert "changed counts: 2\n  iterations: 10 -> 8 over 2 files\n" in capsys.readouterr().out
    (here / "c.json").unlink()
    (there / "c.json").unlink()
    (here / "a.json").write_text('{"iterations": 2, "value": 1.0000000000000002}\n')
    assert parity.compare(str(here), str(there), rtol=1e-13)
    assert "changed counts: 0\n" in capsys.readouterr().out
    # an integer column of a CSV is a count as well
    (here / "b.csv").write_text("v,lambda\n1,2.0\n")
    (there / "b.csv").write_text("v,lambda\n2,2.0\n")
    assert not parity.compare(str(here), str(there), rtol=1.0)
    assert "  b.csv: v [2] -> [1]\n" in capsys.readouterr().out


def test_rtol_takes_level0_relative_to_the_value_of_its_document(tmp_path, capsys):
    parity = _parity()
    here, there = tmp_path / "here", tmp_path / "there"
    for root in (here, there):
        root.mkdir()
    # a level 0 of rounding noise beside a norm of 4.69 (modgauss_f16)
    (here / "a.json").write_text('{"level0": 7.42e-16, "value": 4.69}\n')
    (there / "a.json").write_text('{"level0": 7.40e-16, "value": 4.69}\n')
    assert parity.compare(str(here), str(there), rtol=1e-13)
    assert "level0 2e-18 (rel 4.26e-19)" in capsys.readouterr().out
    (here / "a.json").write_text('{"level0": 1e-12, "value": 4.69}\n')
    assert not parity.compare(str(here), str(there), rtol=1e-13)


def test_the_request_set_runs_report_on_the_verify_outputs(tmp_path, monkeypatch):
    parity = _parity()
    calls = []
    monkeypatch.setattr(parity.cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(parity, "_sequence_norms", dict)
    monkeypatch.setattr(parity, "_errors", str)
    monkeypatch.setattr(sys, "argv", ["parity.py", "--out", str(tmp_path / "out")])
    monkeypatch.chdir(tmp_path)
    assert parity.main() == 0
    assert [argv[0] for argv in calls[-2:]] == ["verify", "report"]
    assert calls[-1] == ["report", "--out", "verify"]
