"""Every output of a fixed set of CLI runs is byte-identical to a pinned
table: each op of the benchmark's seed-1 corpora (built by
`perfbench/corpus.py`, imported as it is), the `--corrupt` audits among
them, then `optimize --k 1 --budget 1` and two `optimize --k 2 --budget 300
--resume` runs on one results file. A run is pinned by the sha256 of its
report, SVG, results file, stdout (with the run directory masked) and
stderr, and by its exit code; `pinned_outputs.json` holds the table.

The benchmark's ops run no SVG or audit on its non-coverings, so the
holed instances of the seed-1 `generic-verify` corpus also get a
`decompose --svg` and an `audit` run each, pinned the same way in
`pinned_holed_outputs.json`: these reach the non-stair branches of the
SVG, of the `cell_shape` witness and of `run_audits`."""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from staircover.cli import main

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
PINNED = json.loads((HERE / "pinned_outputs.json").read_text(encoding="utf-8"))
PINNED_HOLED = json.loads((HERE / "pinned_holed_outputs.json").read_text(encoding="utf-8"))
WORKLOADS = ("audit-corpus", "generic-verify", "bulk-verify")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, files: dict, root: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(str(root), "<tmp>").encode()),
        "stderr": _sha(err.getvalue().encode()),
        **{name: _sha(Path(path).read_bytes()) for name, path in files.items() if path},
    }


def _corpus():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.remove(str(PERFBENCH))


def collect(root: Path) -> dict:
    """Run every pinned op under `root`; returns {label: digests}."""
    corpus = _corpus()
    table = {}
    for workload in WORKLOADS:
        for op in corpus.build(workload, 1, str(root / workload))["ops"]:
            files = {"report": op["report"], "svg": op.get("svg")}
            table[f"{workload}/{op['label']}"] = _run(op["argv"], files, root)
    table["optimize-budget-1"] = _run(["optimize", "--k", "1", "--budget", "1"], {}, root)
    results, report = root / "results.json", root / "optimize.json"
    argv = ["optimize", "--k", "2", "--budget", "300", "--resume", str(results),
            "--out", str(report)]
    for run in ("first", "second"):
        table[f"optimize-resume-{run}"] = _run(argv, {"report": report, "results": results}, root)
    return table


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return collect(tmp_path_factory.mktemp("pinned"))


def test_every_pinned_run_is_made(outputs):
    assert sorted(outputs) == sorted(PINNED)


@pytest.mark.parametrize("label", sorted(PINNED))
def test_outputs_match_the_pinned_bytes(outputs, label):
    assert outputs[label] == PINNED[label]


def test_holed_svg_and_audit_match_the_pinned_bytes(tmp_path):
    instances = _corpus().build("generic-verify", 1, str(tmp_path / "generic-verify"))["instances"]
    table = {}
    for name, facts in instances.items():
        if facts["covers"]:
            continue
        svg = tmp_path / f"{name}.svg"
        for command, extra in (("decompose", ["--svg", str(svg)]), ("audit", [])):
            report = tmp_path / f"{name}.{command}.json"
            argv = [command, facts["path"], "--out", str(report), *extra]
            files = {"report": report, "svg": svg if extra else None}
            table[f"{name}.{command}"] = _run(argv, files, tmp_path)
    assert table == PINNED_HOLED
