"""The traced benchmark run wraps qgames functions by name.

``bench/spans.py`` looks every ``LAYERS`` entry up with a plain ``getattr``
on its qgames module, so a renamed or deleted name breaks
``bench/run.py --trace 1``. The harness is loaded by path and only read:
no wrapper is installed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


ENTRIES = [(layer, entry) for layer, names in _layers().items() for entry in names]


@pytest.mark.parametrize("layer,entry", ENTRIES, ids=[f"{l}.{e}" for l, e in ENTRIES])
def test_layer_entry_resolves(layer, entry):
    module = importlib.import_module(f"qgames.{layer}")
    owner_name, _, method = entry.partition(".")
    owner = getattr(module, owner_name)
    if method:
        owner = getattr(owner, method)
    elif isinstance(owner, type):
        # a bare class name is timed through its __post_init__
        owner = owner.__post_init__
    assert callable(owner)
