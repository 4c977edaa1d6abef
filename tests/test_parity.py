"""`scripts/parity.py --against` passes only when both output trees are byte-identical."""

import importlib.util
import os

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


def test_errors_hold_the_exit_code_and_last_stderr_line_of_each_bad_input():
    rows = [line.split("\t") for line in _parity()._errors().splitlines()]
    assert [(name, code) for name, code, _ in rows] == [
        ("q-at-0-differs-from-q0", "2"), ("2d-with-a-bank-member", "1"),
        ("negative-seed-in-config", "2"), ("negative-seed-option", "2"), ("p-below-1", "2"),
        ("alpha-at-least-S-plus-1", "3"), ("unknown-member", "1"), ("bad-expression", "2")]
    assert all(last and "Traceback" not in last for _, _, last in rows)
