"""The benchmark traces functions of the package by name (``LAYERS`` in
``perfbench/run.py``).  A name that no longer resolves is only warned about
there, and its metrics then read 0; this test fails instead."""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple of ``perfbench/run.py``, read without importing it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_exists(layer):
    module, attr = layer.split(".")
    assert callable(getattr(importlib.import_module(f"seqtoa.{module}"), attr, None)), f"seqtoa.{layer}"
