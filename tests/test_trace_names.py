"""Every function the benchmark tracer names exists where it looks for it.

``bench/tracing.py`` wraps the layer functions it names in ``STAGE_OF``,
``SELF_TIMES`` and ``CALLS``, and counts those in ``COUNTED``.  A name that
no longer resolves is skipped without an error, and its per-layer metric
then reads 0, so a rename must fail here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    module = sys.modules.get("bench_tracing")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


def _traced_names():
    """``pytest.param(layer, owner class or None, attribute)`` of every name
    the tracer uses."""
    tracing = _tracing()
    spans = {*tracing.STAGE_OF, *tracing.SELF_TIMES, *tracing.CALLS}
    names = {(layer, None, attr) for layer, attr in (name.split(".") for name in spans)}
    names |= set(tracing.COUNTED.values())
    return [
        pytest.param(*name, id=".".join(part for part in name if part))
        for name in sorted(names, key=str)
    ]


@pytest.mark.parametrize("layer, owner, attr", _traced_names())
def test_traced_function_exists(layer, owner, attr):
    module = importlib.import_module(f"fuzzystab.{layer}")
    if owner is None:
        assert attr in module.__all__
        assert callable(getattr(module, attr))
    else:
        assert callable(vars(getattr(module, owner))[attr])
