"""The benchmark wraps dirlap functions by name; they must keep existing.

bench/spans.py lists, per dirlap module, the functions its tracer replaces
with timing wrappers. A function renamed or moved away makes the traced
benchmark fail with an AttributeError, so the names are checked here.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, qualname",
    [(layer, name) for layer, names in load_spans().LAYERS.items() for name in names],
)
def test_traced_function_exists(layer, qualname):
    target = importlib.import_module(f"dirlap.{layer}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
