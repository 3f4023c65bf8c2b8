"""`verify` and `decompose` reports on the benchmark's own seed-1 corpora
(built by `perfbench/corpus.py`, imported as it is) are byte-identical with
the certificate-first depth scan on and forced off; `verify` decomposes
only where the scan is large, never on the N ~ 1,000 bulk lattices; and
there it makes no `Fraction` per translate, even when one literal of the
file is not plain."""

import cProfile
import importlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from staircover import Point, arrangement, verification
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


def verified(path):
    """The instance of the file at *path*, and the numbers of `Fraction`s
    and `Point`s made to load and verify it."""
    profile = cProfile.Profile()
    profile.enable()
    inst, _ = load_instance(path)
    verification.coverage_certificate(inst)
    profile.disable()
    made = (Fraction.__new__.__code__, Point.__init__.__code__)
    return inst, *(
        sum(entry.callcount for entry in profile.getstats() if entry.code is code)
        for code in made
    )


def bulk_files(bench_corpus, root) -> list[str]:
    return sorted({
        op["argv"][1] for op in bench_corpus.build("bulk-verify", 1, str(root))["ops"]
        if op["command"] == "verify"
    })


def test_bulk_verify_makes_no_fraction_per_translate(bench_corpus, tmp_path):
    # the parser puts the plain literals straight onto the integer frame and
    # the scan reads it: Fractions are made for l, the window and the witness
    files = bulk_files(bench_corpus, tmp_path)
    assert files
    for path in files:
        inst, fractions, points = verified(path)
        assert inst.size > 900 and fractions <= 8, (path, inst.size, fractions)
        assert points == 1 and "corners" not in vars(inst)  # the witness alone


def test_one_literal_that_is_not_plain_is_read_by_itself(bench_corpus, tmp_path):
    # "+" is read by `rat`, alone: the rest of the file stays plain
    path = next(p for p in bulk_files(bench_corpus, tmp_path) if "bulk1-grid2-k1" in p)
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    pair = next(pair for pair in data["translates"] if pair[0][0] != "-")
    plain, _ = load_instance(path)
    pair[0] = "+" + pair[0]
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    inst, fractions, points = verified(path)
    assert inst == plain and inst.size > 900
    assert fractions <= 8 + 1 and points == 1, (fractions, points)
