import json
import math
import operator
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbesov as vb
import vbesov.cli as cli
from vbesov.cli import main
from vbesov.config import ConfigError, emit_config, parse_config
from vbesov.errors import AdmissibilityError, ParameterError
from vbesov.exprgrammar import ExprError, evaluate_text, parse_expression
from vbesov.reporting import strip_timestamp

FAST_CONFIG = """
# scaled-down run for fast tests
points = 1024
octaves = 6
nodes_per_octave = 12
p = 2
alpha = 1 / 2
q = 2 + 1 / log(e + 1 / t)
q0 = 2.0
member = gauss_w1
seed = 7
"""


# -- expression grammar ---------------------------------------------------------

def test_expr_basic():
    x = np.linspace(-2, 2, 64)
    out = evaluate_text("3 + sin(2 * pi * x / 16)", "x", x)
    assert np.allclose(out, 3 + np.sin(2 * np.pi * x / 16))


def test_expr_nested_and_unary():
    t = np.geomspace(0.01, 1.0, 32)
    out = evaluate_text("2 + 1 / log(e + 1 / t)", "t", t)
    assert np.allclose(out, 2 + 1 / np.log(np.e + 1 / t))
    out = evaluate_text("-abs(t - 1) * 2", "t", t)
    assert np.allclose(out, -np.abs(t - 1) * 2)


def test_expr_errors_carry_position():
    with pytest.raises(ExprError) as ei:
        parse_expression("2 + $")
    assert "column" in str(ei.value)
    with pytest.raises(ExprError):
        parse_expression("sin(1")
    with pytest.raises(ExprError):
        parse_expression("fob(1)")
    with pytest.raises(ParameterError):
        evaluate_text("x + 1", "t", np.ones(3))


def test_expr_no_code_execution():
    with pytest.raises(ExprError):
        parse_expression("__import__('os')")


# A generated expression is (text, precedence, value): the value is composed
# from the numpy operations the grammar names, in the tree the text spells,
# without the parser.  Precedence: 0 sum, 1 product, 2 negation, 3 atom; a
# child below its operator's precedence is parenthesized, and the right
# operand of a left-associative operator needs a strictly higher one.
_X = np.array([-3.0, -1.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5])
_blank = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _number(draw):
    i = draw(st.integers(0, 999))
    frac = draw(st.text("0123456789", min_size=1, max_size=4))
    text, value = draw(st.sampled_from([
        (str(i), float(i)), (f"{i}.", float(i)), (f"00{i}", float(i)),
        (f".{frac}", float(f"0.{frac}")), (f"{i}.{frac}", float(f"{i}.{frac}"))]))
    return text, 3, lambda x: np.full_like(x, value)


def _atoms(var):
    const = st.sampled_from(sorted(vb.exprgrammar.CONSTANTS.items())).map(
        lambda kv: (kv[0], 3, lambda x: np.full_like(x, kv[1])))
    return st.one_of(_number(), const, st.just((var, 3, lambda x: x)))


def _wrap(draw, node, floor):
    text, prec, fn = node
    if prec < floor or draw(st.booleans()) and draw(st.booleans()):
        return f"({draw(_blank)}{text}{draw(_blank)})", 3, fn
    return node


def _compound(children):
    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "call"]))
        if kind == "neg":
            text, _, fn = _wrap(draw, draw(children), 2)
            return f"-{draw(_blank)}{text}", 2, lambda x: -fn(x)
        if kind == "call":
            name = draw(st.sampled_from(sorted(vb.exprgrammar.FUNCTIONS)))
            text, _, fn = draw(children)
            call = vb.exprgrammar.FUNCTIONS[name]
            return f"{name}{draw(_blank)}({text})", 3, lambda x: call(fn(x))
        prec = 0 if kind in "+-" else 1
        (lt, _, lf), (rt, _, rf) = _wrap(draw, draw(children), prec), _wrap(draw, draw(children), prec + 1)
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[kind]
        return f"{lt}{draw(_blank)}{kind}{draw(_blank)}{rt}", prec, lambda x: op(lf(x), rf(x))
    return build()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["x", "t"]).flatmap(
    lambda var: st.tuples(st.just(var), st.recursive(_atoms(var), _compound, max_leaves=12))),
    _blank, _blank)
def test_expr_reads_the_grammar_it_documents(case, lead, trail):
    var, (text, _, fn) = case
    with np.errstate(all="ignore"):
        got = evaluate_text(lead + text + trail, var, _X)
        assert np.array_equal(got, fn(_X), equal_nan=True), text


@pytest.mark.parametrize("text", [
    "x ** 2", "1e3", "1_000", "0x10", "1j", "x // 2", "x if x else x", "1if x else 2",
    "x.real", "sin(x, x)", "sin(x=1)", "sin()", "abs", "True", "lambda: 1", "x < 1",
    "+x", "x(2)", "()", "", "  ", "2 x", "1 +", "(x", "x)", "sin(x)(2)", "...",
    "x\n+ 1", "\u0663", "x\u00a0+ 1"])
def test_expr_outside_the_grammar_is_an_expr_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no parser warning leaks out either
        with pytest.raises(ExprError):
            parse_expression(text)


def test_expr_columns_count_from_1_inside_the_text():
    for text, column, message in [
            ("2 + $", 5, "unexpected character '$'"), ("\tfob(x)", 2, "unknown name 'fob'"),
            ("  2 * 007 + ab", 13, "unknown name 'ab'"), ("x * (1", 5, "'(' was never closed"),
            ("1 +", 4, "invalid syntax")]:
        with pytest.raises(ExprError) as ei:
            parse_expression(text)
        assert ei.value.column == column and str(ei.value) == f"{message} (column {column})"


def test_expr_reads_leading_zeros_and_leading_blanks():
    x = np.linspace(-1, 1, 5)
    assert np.array_equal(evaluate_text(" \t02 * x + 00.50 - 000", "x", x), 2.0 * x + 0.5 - 0.0)


def test_too_deep_an_expression_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "p = " + "+".join(["2"] * 5000) + "\n")
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 1, ") and err.count("\n") == 1
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_expression("-" * 5000 + "x")


# -- config ----------------------------------------------------------------------

def test_config_roundtrip():
    cfg = parse_config(FAST_CONFIG)
    assert cfg.points == 1024 and cfg.octaves == 6
    assert cfg.alpha == "1 / 2"
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert emit_config(again) == text


def test_config_errors_carry_line():
    with pytest.raises(ConfigError) as ei:
        parse_config("points = 1024\nwhat even is this\n")
    assert "line 2" in str(ei.value)
    with pytest.raises(ConfigError):
        parse_config("unknown_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config("points = twelve\n")
    with pytest.raises(ConfigError):
        parse_config("p = 2 +\n")


def test_config_bad_expression_reports_its_line():
    text = "points = 1024\n\nalpha = 1 / 2\nq =  2 + $\n"
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert (ei.value.line, ei.value.column) == (4, 10)  # where the '$' is
    assert str(ei.value).startswith("line 4, column 10: bad expression for q")
    with pytest.raises(ConfigError) as ei:
        parse_config("alpha = fob(x)\np = 2\n")
    assert (ei.value.line, ei.value.column) == (1, 9)


def test_config_builds_fields():
    cfg = parse_config(FAST_CONFIG)
    spec = cfg.grid()
    p = cfg.p_field(spec)
    assert p.cached_min == p.cached_max == 2.0
    q = cfg.q_field(cfg.ladder())
    assert q.limit_value == 2.0


# -- CLI ---------------------------------------------------------------------------


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_gen_bank(tmp_path):
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    out = str(tmp_path / "out")
    assert main(["gen-bank", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "bank_manifest.json")))
    assert len(manifest["members"]) == 20
    some = next(iter(manifest["members"].values()))
    assert os.path.exists(some)


def test_cli_norm_and_zero(tmp_path):
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    out = str(tmp_path / "out")
    assert main(["norm", "--config", cfg, "--out", out, "--form", "q0"]) == 0
    doc = json.load(open(os.path.join(out, "norm_gauss_w1_q0.json")))
    assert doc["value"] > 0

    zero_csv = str(tmp_path / "zero.csv")
    spec = parse_config(FAST_CONFIG).grid()
    vb.grid.write_csv(vb.from_callable(spec, lambda x: 0 * x), zero_csv)
    cfg2 = _write_cfg(tmp_path, FAST_CONFIG + f"\nmember = {zero_csv}\n")
    # duplicate member key would be a config error; rewrite instead
    cfg2 = _write_cfg(tmp_path, FAST_CONFIG.replace("member = gauss_w1",
                                                    f"member = {zero_csv}"))
    assert main(["norm", "--config", cfg2, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, f"norm_zero.csv_direct.json")))
    assert doc["value"] == 0.0


def test_cli_rejects_a_csv_member_written_on_another_box(tmp_path, capsys):
    # the same N on L = 8 puts row 1 at -4.0, not at the L = 16 grid's -8.0
    member = str(tmp_path / "f.csv")
    vb.grid.write_csv(vb.from_callable(vb.make_grid(1, 8.0, 1024), lambda x: np.exp(-x ** 2)),
                      member)
    cfg = _write_cfg(tmp_path, FAST_CONFIG.replace("member = gauss_w1", f"member = {member}"))
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: CSV row 1 lies at (-4.0), not at grid node (-8.0)\n")
    # on its own grid, a row 1 ulp off its node reads, and one 1e-6 off is named
    spec = vb.make_grid(1, 8.0, 1024)
    with open(member, newline="") as fh:
        lines = fh.read().split("\r\n")
    x, rest = lines[3].split(",", 1)

    def shifted(by):
        lines[3] = f"{float(x) + by!r},{rest}"
        with open(member, "w", newline="") as fh:
            fh.write("\r\n".join(lines))
        return member

    vb.grid.read_csv(shifted(float(np.spacing(float(x)))), spec)
    with pytest.raises(ParameterError, match=r"^CSV row 3 lies at \(-3\.98437"):
        vb.grid.read_csv(shifted(1e-6), spec)


@pytest.mark.parametrize("data, message", [
    (b"", "error: CSV is empty: no header x,re,im"),
    (b"x,re,im\r\n-8.0,0.5\r\n", "error: CSV row 1 has 2 fields, not 3"),
    (b"x,re,im\r\n-8.0,0.5,0.0\r\n-7.984375,half,0.0\r\n",
     "error: CSV row 2, column re: 'half' is not a number"),
    (b"x,im,re\r\n-8.0,0.5,0.0\r\n", "error: CSV header is 'x,im,re', not 'x,re,im' of a 1-D grid"),
    (b"x,re,im\r\n\xff\xfe", "error: CSV is not UTF-8 text: invalid start byte at byte 9"),
], ids=["empty", "short-row", "non-numeric", "columns-swapped", "not-text"])
def test_cli_rejects_a_malformed_csv_member(tmp_path, capsys, data, message):
    # a member that is not a `write_csv` file is one error line and exit 1,
    # not a traceback or samples read from the wrong columns
    member = tmp_path / "f.csv"
    member.write_bytes(data)
    cfg = _write_cfg(tmp_path, FAST_CONFIG.replace("member = gauss_w1", f"member = {member}"))
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_cli_exit_codes(tmp_path):
    bad = _write_cfg(tmp_path, "p = 0.5\npoints = 1024\n")
    assert main(["norm", "--config", bad, "--out", str(tmp_path / "o")]) == 2

    unparseable = _write_cfg(tmp_path, "points 1024\n")
    assert main(["norm", "--config", unparseable, "--out", str(tmp_path / "o")]) == 2

    # hypothesis violation: alpha+ = 2.5 >= S+1 = 2 for the local-means form
    viol = _write_cfg(tmp_path, FAST_CONFIG.replace("alpha = 1 / 2",
                                                    "alpha = 2.5\nkernel_S = 1"))
    assert main(["norm", "--config", viol, "--out", str(tmp_path / "o"),
                 "--form", "local_mean_double_prime"]) == 3


@pytest.mark.parametrize("text, code, message", [
    ("points = 256\nq = 3\n", 2,
     "admissibility error: q = 3 is 3.0 at t = 0 but q0 = 2.0; they must agree"),
    ("dimension = 2\npoints = 64\nbox_length = 8\n", 1,
     "error: the bank is 1-D; a 2-D run needs a CSV member (member = f.csv)"),
    ("points = 256\nseed = -1\n", 2,
     "config error: line 2, column 8: seed must be >= 0, got -1"),
], ids=["q-at-0-differs-from-q0", "2d-with-a-bank-member", "negative-seed"])
def test_cli_rejects_inputs_outside_the_hypotheses(tmp_path, capsys, text, code, message):
    cfg = _write_cfg(tmp_path, text)
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("key", ["q0", "peetre_a", "box_length", "kernel_epsilon", "atom_gamma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_a_non_finite_number(tmp_path, capsys, key, value):
    cfg = _write_cfg(tmp_path, f"points = 256\n{key} = {value}\n")
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: line 2, column {len(key) + 4}: {key} must be finite, got {value}\n")


def test_only_float_keys_are_checked_for_finiteness():
    # an integer key holds any int, however large; only a float can be nan
    assert parse_config("seed = " + "9" * 400 + "\n").seed == int("9" * 400)


def test_cli_seed_option_must_be_nonnegative(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["norm", "--seed", "-1", "--out", str(tmp_path / "o")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "vbesov norm: error: argument --seed: seed must be >= 0, got -1"
    assert "Traceback" not in err


def test_config_q_must_equal_q0_where_its_value_at_0_is_finite(tmp_path):
    ladder = vb.make_ladder(4, 12)
    with pytest.raises(AdmissibilityError, match=r"is 3\.0 at t = 0 but q0 = 2\.0"):
        parse_config("q = 3\n").q_field(ladder)
    assert parse_config("q = 3\nq0 = 3\n").q_field(ladder).limit_value == 3.0
    # sin(1/t) has no value at t = 0 that the expression can decide
    assert parse_config("q = 3 + sin(1 / t)\nq0 = 3\n").q_field(ladder).limit_value == 3.0
    # so a constant q gives one norm in both forms
    cfg = _write_cfg(tmp_path, "points = 1024\noctaves = 6\nq = 3\nq0 = 3\n")
    values = []
    for form in ("direct", "q0"):
        assert main(["norm", "--config", cfg, "--form", form, "--out", str(tmp_path / "o")]) == 0
        values.append(json.load(open(tmp_path / "o" / f"norm_gauss_w1_{form}.json"))["value"])
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_cli_requests_in_one_process_equal_requests_made_alone(tmp_path, monkeypatch, capsys):
    # one parser serves every request of a process; options given to one
    # request (a form, a seed) must not carry over to the next
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    requests = [["norm", "--form", "q0", "--seed", "3"], ["norm"], ["norm", "--seed", "3"],
                ["norm", "--form", "q0"], ["norm", "--form", "direct", "--seed", "7"]]

    def run(where, fresh_parser):
        monkeypatch.chdir(tmp_path / where)
        if not fresh_parser:
            cli.build_parser.cache_clear()
        outputs = []
        for i, argv in enumerate(requests):
            if fresh_parser:
                cli.build_parser.cache_clear()
            assert main(argv + ["--config", cfg, "--out", f"out{i}"]) == 0
            files = {name: strip_timestamp(os.path.join(f"out{i}", name))
                     for name in sorted(os.listdir(f"out{i}"))}
            outputs.append((capsys.readouterr().out, files))
        return outputs

    (tmp_path / "together").mkdir()
    (tmp_path / "alone").mkdir()
    together = run("together", fresh_parser=False)
    assert cli.build_parser.cache_info().misses == 1
    alone = run("alone", fresh_parser=True)
    assert together == alone
    seeds = [json.loads(next(iter(files.values())))["seed"] for _, files in together]
    assert seeds == [3, 7, 3, 7, 7]
    assert [list(files) for _, files in together] == [
        ["norm_gauss_w1_q0.json"], ["norm_gauss_w1_direct.json"],
        ["norm_gauss_w1_direct.json"], ["norm_gauss_w1_q0.json"], ["norm_gauss_w1_direct.json"]]


def test_cli_decompose_synthesize(tmp_path):
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    out = str(tmp_path / "out")
    assert main(["decompose", "--config", cfg, "--out", out]) == 0
    coeffs = os.path.join(out, "coeffs_gauss_w1.csv")
    assert os.path.exists(coeffs)
    assert main(["synthesize", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "synthesize_gauss_w1.json")))
    assert doc["l2_relative_residual"] <= 0.05


def test_cli_decompose_rejects_an_atom_gamma_of_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, FAST_CONFIG + "atom_gamma = 1\n")
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: atom parameters need K >= 0, L >= -1, gamma > 1 finite; "
        "got K = 2, L = 0, gamma = 1.0\n")


def test_cli_decompose_synthesize_build_no_cube_keys(tmp_path, monkeypatch):
    # the per-cube {(v, m): lambda} view is for callers; the commands read
    # the level lattices, so a view that raises leaves every output byte
    cfg = _write_cfg(tmp_path, "points = 512\noctaves = 5\nmember = tone_k40\n")
    runs = {}
    for label in ("plain", "no-keys"):
        if label == "no-keys":
            def no_keys(dec):
                raise AssertionError("a command built the per-cube coefficient dict")
            monkeypatch.setattr(vb.AtomicDecomposition, "coefficients", property(no_keys))
        out = tmp_path / label
        for command in ("decompose", "synthesize"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        runs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(runs["plain"]) == ["coeffs_tone_k40.csv", "decompose_tone_k40.json",
                                     "reconstruction_tone_k40.csv", "synthesize_tone_k40.json"]
    for name, data in runs["plain"].items():
        if name.endswith(".json"):  # the volatile block and the output paths differ
            a, b = json.loads(data), json.loads(runs["no-keys"][name])
            for doc in (a, b):
                doc.pop("timestamp", None)
                doc.pop("csv", None)
                doc.pop("reconstruction", None)
            assert a == b, name
        else:
            assert data == runs["no-keys"][name], name


def test_cli_verify_single_and_report(tmp_path):
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    out = str(tmp_path / "out")
    code = main(["verify", "--config", cfg, "--out", out, "--check", "hardy"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "check_hardy.json"))
    assert os.path.exists(os.path.join(out, "checks.csv"))
    assert main(["report", "--config", cfg, "--out", out]) == 0


def test_cli_report_is_byte_stable_outside_its_timestamp(tmp_path):
    # the check runtimes live in the volatile timestamp block, so two runs
    # of verify + report give the same rollup bytes
    cfg = _write_cfg(tmp_path, FAST_CONFIG)
    rollups = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["verify", "--config", cfg, "--out", out, "--check", "hardy",
                     "--check", "eta-algebra"]) == 0
        assert main(["report", "--config", cfg, "--out", out]) == 0
        rollup = os.path.join(out, "rollup.json")
        with open(rollup) as fh:
            assert len(json.load(fh)["timestamp"]["runtime_s"]) == 2
        rollups.append(strip_timestamp(rollup))
    assert rollups[0] == rollups[1]
    assert b"runtime_s" not in rollups[0]


def test_cli_verify_quick_reaches_the_runner_with_the_reduced_grid(tmp_path, monkeypatch):
    seen = {}

    def capture(which, bank, seed=7):
        seen["bank"] = bank
        return []

    monkeypatch.setattr("vbesov.checks.run_checks", capture)
    assert main(["verify", "--quick", "--out", str(tmp_path / "out")]) == 0
    assert seen["bank"].spec.points_per_axis == 1024
    assert seen["bank"].ladder.octaves == 6
    assert seen["bank"].ladder.nodes_per_octave == 12


def test_cli_has_no_jobs_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--jobs", "2", "--out", str(tmp_path / "out")])
    assert ei.value.code == 2
    cfg = _write_cfg(tmp_path, "jobs = 2\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'jobs'" in capsys.readouterr().err


def test_cli_synthesize_prints_plain_float(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "points = 256\noctaves = 4\nmember = gauss_w1\n")
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("round trip gauss_w1: relative L2 residual = ")
    float(line.rsplit("= ", 1)[1])  # a bare float repr, not np.float64(...)


def test_cli_synthesize_rejects_unaligned_levels_up_front(tmp_path, capsys, monkeypatch):
    import vbesov.atoms as atoms_mod

    def no_kernel_work(*args, **kwargs):
        raise AssertionError("analyze reached the kernels before validating V")

    monkeypatch.setattr(atoms_mod, "synthesize_phi_t", no_kernel_work)
    monkeypatch.setattr(atoms_mod, "spectrum", no_kernel_work)
    # h = 16 / 2048 = 2^-7, so level-8 cubes (the default V = octaves) cannot align
    cfg = _write_cfg(tmp_path, "points = 2048\noctaves = 8\n")
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "V = 8" in err
    assert "grid spacing 0.0078125" in err
    assert "finest aligned level is 7" in err


def test_cli_norm_local_means_build_no_frame(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, "points = 256\noctaves = 4\nmember = gauss_w1\n")
    argv = ["norm", "--config", cfg, "--form", "local_mean_double_prime"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0

    def no_frame(*args, **kwargs):
        raise AssertionError("the local-mean forms read no Calderon frame")

    monkeypatch.setattr(cli, "build_resolution_of_unity", no_frame)
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    docs = []
    for d in ("a", "b"):
        doc = json.load(open(tmp_path / d / "norm_gauss_w1_local_mean_double_prime.json"))
        doc.pop("timestamp", None)
        docs.append(doc)
    assert docs[0] == docs[1]
    with pytest.raises(AssertionError):
        main(["norm", "--config", cfg, "--form", "direct", "--out", str(tmp_path / "c")])


def test_config_rejects_removed_profile_order_alt(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "profile_order_alt = 10\n")
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'profile_order_alt'" in capsys.readouterr().err
