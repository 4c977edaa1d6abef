"""`scripts/loc.py` counts the lines that hold code or docstrings."""

import importlib.util
import os

LOC_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "loc.py")


def _loc():
    spec = importlib.util.spec_from_file_location("loc_script", LOC_PATH)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


def test_comments_and_blank_lines_count_zero(tmp_path):
    path = tmp_path / "comments.py"
    path.write_text("# one\n\n    # two, indented\n\n")
    assert _loc().count_lines(str(path)) == 0


def test_every_line_of_a_docstring_counts(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('"""Title.\n\nBody.\n"""\n\n\ndef f():  # note\n    # comment\n'
                    '    return (1 +\n\n            2)\n')
    # the docstring's 4 lines, the def, and the two lines of the return that
    # hold tokens: the blank line between them does not count
    assert _loc().count_lines(str(path)) == 7


def test_the_total_is_the_sum_of_the_modules(tmp_path, capsys):
    loc = _loc()
    (tmp_path / "a.py").write_text("x = 1\n# c\n")
    (tmp_path / "b.py").write_text('"""d"""\ny = [\n    2,\n]\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert loc.count_package(str(tmp_path)) == {"a.py": 1, "b.py": 4}
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["5", "total"]
