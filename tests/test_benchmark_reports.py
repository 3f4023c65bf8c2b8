"""`verify` and `decompose` reports on the benchmark's own seed-1 corpora
(built by `perfbench/corpus.py`, imported as it is) are byte-identical with
the certificate-first depth scan on and forced off; and `verify` decomposes
only where the scan is large, never on the N ~ 1,000 bulk lattices."""

import importlib
import math
from pathlib import Path

import pytest

from staircover import arrangement, verification
from staircover.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_corpus():
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("corpus")


@pytest.mark.parametrize("workload", ["generic-verify", "bulk-verify"])
def test_reports_do_not_depend_on_the_certificate_path(
    bench_corpus, tmp_path, monkeypatch, capsys, workload
):
    ops = [
        op for op in bench_corpus.build(workload, 1, str(tmp_path))["ops"]
        if op["command"] in ("verify", "decompose")
    ]
    real = verification.decompose
    decomposed = []  # instances that a certificate decomposed
    monkeypatch.setattr(
        verification, "decompose", lambda inst: decomposed.append(inst) or real(inst)
    )

    def run():
        decomposed.clear()
        return {
            op["label"]: (main(op["argv"]), Path(op["report"]).read_bytes()) for op in ops
        }

    on, on_decomposed = run(), len(decomposed)
    monkeypatch.setattr(arrangement, "_CERTIFY_SLOTS_PER_TRANSLATE", math.inf)
    off = run()
    capsys.readouterr()
    assert on == off
    assert decomposed == []
    if workload == "bulk-verify":
        assert on_decomposed == 0
    else:  # the generic instances' scans are large enough to ask for it
        assert on_decomposed > 0
