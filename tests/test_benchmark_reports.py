"""`verify` and `decompose` reports on the benchmark's own seed-1 corpora
(built by `perfbench/corpus.py`, imported as it is) are byte-identical with
the certificate-first depth scan on and forced off; `verify` decomposes
only where the scan is large, never on the N ~ 1,000 bulk lattices; and
there it makes no `Fraction` per translate."""

import cProfile
import fractions
import importlib
import math
import pstats
from pathlib import Path

import pytest

from staircover import arrangement, verification
from staircover.cli import main
from staircover.fileio import load_instance

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
    real = verification.stair_decomposition
    decomposed = []  # instances that a certificate decomposed
    monkeypatch.setattr(
        verification, "stair_decomposition", lambda inst: decomposed.append(inst) or real(inst)
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


def test_bulk_verify_makes_no_fraction_per_translate(bench_corpus, tmp_path):
    # the parser puts the plain literals straight onto the integer frame and
    # the scan reads it: Fractions are made for l, the window and the witness
    files = {
        op["argv"][1] for op in bench_corpus.build("bulk-verify", 1, str(tmp_path))["ops"]
        if op["command"] == "verify"
    }
    assert files
    for path in sorted(files):
        profile = cProfile.Profile()
        profile.enable()
        inst, _ = load_instance(path)
        verification.coverage_certificate(inst)
        profile.disable()
        made = sum(
            calls
            for (file, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
            if file == fractions.__file__ and name == "__new__"
        )
        assert inst.size > 900 and made <= 8, (path, inst.size, made)
        assert "corners" not in vars(inst)  # no Points were made either
