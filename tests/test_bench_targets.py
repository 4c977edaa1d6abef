"""Every name the benchmark tracer patches must exist, or `--trace 1` breaks.

`perfbench/tracer.py` replaces each `TARGETS` entry at install time: a module
attribute, or a method looked up in its class's `__dict__`.  A name deleted
from the library makes `Tracer.install` raise, so this test loads the tracer
by path and checks every entry.
"""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[2]}.{t[3]}")
def test_trace_target_exists(target):
    _layer, _op, modname, path, _note = target
    module = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{modname}.{path} is gone"
    else:
        assert hasattr(module, path), f"{modname}.{path} is gone"
