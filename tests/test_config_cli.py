import json
import os

import numpy as np
import pytest

import vbesov as vb
import vbesov.cli as cli
from vbesov.cli import main
from vbesov.config import ConfigError, emit_config, parse_config
from vbesov.errors import ParameterError
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
