"""Every name the benchmark tracer patches or reads must exist, or `--trace 1` breaks.

`perfbench/tracer.py` replaces each `TARGETS` entry at install time: a module
attribute, or a method looked up in its class's `__dict__`.  A name deleted
from the library makes `Tracer.install` raise, so these tests load the tracer
by path and check every entry.  The note functions of the entries read
attributes of the traced calls' return values, so they are run on real ones.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import vbesov as vb
from vbesov.atoms import analyze
from vbesov.besov import peetre_maximal
from vbesov.grid import from_spectrum, spectrum
from vbesov.luxemburg import solve_luxemburg

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return _tracer().TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[2]}.{t[3]}")
def test_trace_target_exists(target):
    _layer, _op, modname, path, _note = target
    module = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{modname}.{path} is gone"
    else:
        assert hasattr(module, path), f"{modname}.{path} is gone"


def test_notes_read_real_return_values():
    tracer = _tracer()
    notes = {t[4] for t in tracer.TARGETS if t[4] is not None}
    assert notes == {tracer._analysis, tracer._solve_iters, tracer._fft_points,
                     tracer._maximal_points}
    spec = vb.make_grid(1, 16.0, 256)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(4, 12))
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))

    dec = analyze(f, frame, V=4)
    cubes, nonzero, materialized = tracer._analysis(dec)
    assert cubes == sum(lat.size for lat in dec.levels)
    assert 0 < nonzero == sum(np.count_nonzero(lat) for lat in dec.levels)
    assert materialized == 0   # atoms are built on request, never stored

    res = solve_luxemburg(np.abs(f.samples), 2.0 + np.sin(spec.axis_coords()), spec.spacing)
    assert tracer._solve_iters(res) == res.iterations > 0

    F = spectrum(f)
    assert tracer._fft_points(F) == tracer._fft_points(from_spectrum(spec, F)) == spec.size
    g = np.abs(f.samples)
    assert tracer._maximal_points(peetre_maximal(spec, g, 0.5, 2.0)) == spec.size
