"""The benchmark's tracer (`perfbench/spans.py`) wraps staircover functions
by (module, function) name, and one missing name breaks every traced run.
Its tables are read from the source without running it; one smoke test
runs it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _table(name: str) -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {SPANS}")


def _layer_spans() -> dict:
    return _table("LAYER_SPANS")


def _layer_metrics() -> dict:
    return _table("LAYER_METRICS")


@pytest.mark.parametrize("module, name", sorted(_layer_spans()))
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"staircover.{module}"), name, None))


_SMOKE = """
import json, sys
import spans
import staircover.cli as cli

work = sys.argv[1]
tracer = spans.Tracer()
tracer.install()
op_main = tracer.wrap(spans.OP_SPAN, cli.main)
tracer.keep = True
codes = [op_main(argv.replace("@", work + "/").split()) for argv in (
    "verify @q.json --out @verify.json",
    "decompose @q.json --out @decompose.json --svg @q.svg",
    "audit @q.json --out @audit.json",
    "audit @q.json --corrupt dup-cell --out @corrupt.json",
    "bounds @q.json --out @bounds.json",
    "optimize --k 1 --budget 30 --out @optimize.json",
)]
metrics = spans.layer_metrics(tracer.spans, 1, 1.0, 1.0)
with open(work + "/metrics.json", "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "metrics": metrics}, fh)
"""


def test_one_traced_pass_of_each_command_kind(tmp_path):
    """Run the tracer for real, in a child process so that its wrappers stay
    out of this one: one traced pass of each kind of benchmark op on the
    four-quarters covering."""
    quarters = {"k": 1, "l": "1",
                "translates": [["0", "0"], ["0", "1/2"], ["1/2", "0"], ["1/2", "1/2"]]}
    (tmp_path / "q.json").write_text(json.dumps(quarters), encoding="utf-8")
    root = SPANS.parent.parent
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(SPANS.parent)])}
    subprocess.run([sys.executable, "-c", _SMOKE, str(tmp_path)], check=True, env=env,
                   capture_output=True, timeout=60)
    out = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    assert out["codes"] == [0, 0, 0, 1, 0, 0]
    metrics = out["metrics"]
    assert list(metrics) == list(_layer_metrics())
    for name in ("arrangement.min_depth_calls", "decomposition.cells",
                 "verification.grid_builds"):
        assert metrics[name] > 0, name
