"""The benchmark's reference check, replayed in-process at CLI seed 7.

`perfbench/workloads.py` pins, per request, the norm to 1e-8 and every
`decompose` coefficient to 1e-12 relative of the recorded references.  These
tests run the `decompose` request of every `norm-light` member, and one
`norm` request per form and exponent config (of `norm-light`, and of
`norm-maximal` at its N = 2048 for the maximal forms), on `gauss_w05` and
`bandnoise_a` in turn, through `cli.main`; each output is checked with
`References.check`, so a change that moves the pinned numbers fails here and
not only in the benchmark.  The module is loaded by path and only read.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from vbesov import cli
from vbesov.besov import FORMS

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "workloads.py")
CLI_SEED = 7
NORM_MEMBERS = ("gauss_w05", "bandnoise_a")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


WL = _workloads()
NORM_LIGHT, NORM_MAXIMAL = WL.WORKLOADS["norm-light"], WL.WORKLOADS["norm-maximal"]


def _replayed():
    """(workload, request) pairs: every norm-light decompose, then per form
    and exponent config one norm request, the two members taking turns."""
    out = [(NORM_LIGHT, r) for r in NORM_LIGHT.requests if r.command == "decompose"]
    norms = {(r.form, r.exponents, r.member): (w, r) for w in (NORM_LIGHT, NORM_MAXIMAL)
             for r in w.requests if r.command == "norm"}
    forms = list(dict.fromkeys(form for form, _, _ in norms))
    for i, form in enumerate(forms):
        for j, exponents in enumerate(WL.EXPONENTS):
            out.append(norms[form, exponents, NORM_MEMBERS[(i + j) % 2]])
    return out


REPLAYED = _replayed()


@pytest.fixture(scope="module")
def references():
    return WL.References.load()


def test_the_replayed_set_covers_every_decompose_and_norm_form():
    decomposed = {r.member for _, r in REPLAYED if r.command == "decompose"}
    assert decomposed == {r.member for r in NORM_LIGHT.requests}
    normed = {(r.form, r.exponents) for _, r in REPLAYED if r.command == "norm"}
    assert normed == {(f, e) for f in FORMS for e in WL.EXPONENTS}


@pytest.mark.parametrize("workload, req", REPLAYED, ids=[r.rid for _, r in REPLAYED])
def test_output_matches_the_benchmark_reference(workload, req, references, tmp_path):
    config = tmp_path / workload.config_name(req)
    out = str(tmp_path / "out")
    config.write_text(workload.config_text(req, out))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.argv(req, str(config), CLI_SEED))
    assert code == cli.EXIT_OK
    assert references.check(req, CLI_SEED, WL.read_output(req, out)) is None
