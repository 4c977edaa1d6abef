import numpy as np
import pytest

import vbesov as vb
from vbesov import cli
from vbesov.bank import MEMBER_NAMES, make_bank, make_member
from vbesov.errors import ParameterError


@pytest.mark.parametrize("seed", [7, 11])
def test_make_member_matches_make_bank(spec4k, ladder, seed):
    bank = make_bank(spec4k, ladder, seed)
    assert MEMBER_NAMES == bank.names()
    for name in bank.names():
        f = make_member(spec4k, name, seed)
        assert f.tag == bank[name].tag
        assert np.array_equal(f.samples, bank[name].samples), name


def test_make_member_unknown_name_lists_the_bank(spec1k):
    with pytest.raises(ParameterError) as err:
        make_member(spec1k, "no_such_member")
    assert str(err.value) == ("unknown bank member 'no_such_member'; known: "
                              + ", ".join(MEMBER_NAMES))


def test_cli_csv_member_builds_no_bank(tmp_path, monkeypatch):
    spec = vb.make_grid(1, 16.0, 256)
    path = str(tmp_path / "f.csv")
    vb.grid.write_csv(vb.from_callable(spec, lambda x: np.exp(-x ** 2)), path)

    def no_bank(*args, **kwargs):
        raise AssertionError("a .csv member built bank members")

    monkeypatch.setattr(cli, "make_bank", no_bank)
    monkeypatch.setattr(cli, "make_member", no_bank)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"points = 256\noctaves = 4\nmember = {path}\n")
    assert cli.main(["norm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
