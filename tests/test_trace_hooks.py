"""The benchmark's tracer (`perfbench/spans.py`) wraps staircover functions
by (module, function) name, and one missing name breaks every traced run.
Its table is read from the source without running it."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layer_spans() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["LAYER_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_SPANS table in {SPANS}")


@pytest.mark.parametrize("module, name", sorted(_layer_spans()))
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"staircover.{module}"), name, None))
