"""The benchmark's span tracer names package functions by string.

``perfbench/tracer.py`` looks each ``LAYERS`` entry up with ``getattr`` on
its ``eulerlab`` module when a traced run starts, so deleting or renaming a
listed function breaks every traced benchmark run without failing anything
else.  This test reads the table (the tracer source is executed in a
private namespace, so nothing is written next to it) and checks every name.
"""

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _layers():
    ns = {"__name__": "perfbench_tracer", "__file__": str(TRACER)}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), ns)
    return ns["LAYERS"]


@pytest.mark.parametrize("module, names", sorted(_layers().items()))
def test_every_traced_layer_exists(module, names):
    mod = importlib.import_module("eulerlab." + module)
    missing = [fn for fn in names if not callable(getattr(mod, fn, None))]
    assert missing == []
