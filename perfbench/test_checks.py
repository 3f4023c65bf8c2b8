"""The benchmark's output checks accept true reports and reject planted
wrong ones: an off-by-one depth, a dropped or misplaced cell, a broken bound
chain, a false corruption witness and lattices off the optimal density."""

import json
from fractions import Fraction as F

import pytest

import checks

QUARTERS = [("0", "0"), ("0", "1/2"), ("1/2", "0"), ("1/2", "1/2")]
FACTS = {"covers": True}


@pytest.fixture
def inst(tmp_path):
    path = tmp_path / "quarters.json"
    path.write_text(json.dumps({"k": 1, "l": "1", "translates": QUARTERS}))
    return checks.load_instance(path)


def verify_report(min_depth=1, witness=("0", "0")):
    return {"kind": "verify", "k": 1, "l": "1", "n_translates": 4,
            "min_depth": min_depth, "witness": list(witness), "covers": min_depth >= 1}


def quarter_cell(i, x, y):
    h = F(1, 2)
    return {"index": i, "stairs": 0, "area": "1/4",
            "x_breaks": [str(x), str(x + h)], "y_breaks": [str(y + h), str(y)]}


def decompose_report():
    cells = [quarter_cell(i, F(x), F(y)) for i, (x, y) in enumerate(QUARTERS)]
    return {"kind": "decompose", "k": 1, "l": "1", "n_translates": 4, "covers": True,
            "min_depth": 1, "cells": cells, "non_stair_cells": [], "empty_indices": [],
            "sum_stairs": 0}


def test_true_reports_pass(inst):
    cells = checks.parse_cells(decompose_report())
    cover = checks.certify_cover(cells, inst[2], inst[0], inst[1])
    assert cover == []
    assert checks.check_verify(verify_report(), inst, FACTS, cover) == []
    assert checks.check_decompose(decompose_report(), inst, FACTS) == []


def test_off_by_one_depth_is_rejected(inst):
    problems = checks.check_verify(verify_report(min_depth=2), inst, FACTS, [])
    assert any("recounts to 1" in p for p in problems)


def test_non_covering_claim_needs_a_shallow_witness(inst):
    facts = {"covers": False, "hole": ["1/4", "1/4"]}
    problems = checks.check_verify(verify_report(min_depth=0), inst, facts)
    assert any("recounts to 1" in p for p in problems)


def test_dropped_cell_is_rejected(inst):
    report = decompose_report()
    report["cells"].pop(1)
    problems = checks.check_decompose(report, inst, FACTS)
    assert any("times, not 1" in p for p in problems)
    assert any("partition" in p for p in problems)


def test_cell_outside_its_triangle_is_rejected(inst):
    report = decompose_report()
    report["cells"][0], report["cells"][3] = (
        dict(report["cells"][3], index=0), dict(report["cells"][0], index=3))
    problems = checks.check_decompose(report, inst, FACTS)
    assert problems == [f"cell {i} leaves its closed triangle" for i in (0, 3)]


def bounds_report():
    cells = [{"index": i, "stairs": 0, "area": "1/4"} for i in range(4)]
    links = [("window_area", "1"), ("cell_area_total", "1"), ("per_cell_bound", "1"),
             ("jensen_bound", "1"), ("stair_budget_bound", "4/3"), ("instance_bound", "4/3")]
    return {"kind": "bounds", "k": 1, "l": "1", "n_translates": 4, "valid": True,
            "holds": True, "cells": cells,
            "links": [{"label": a, "value": v, "holds": True} for a, v in links]}


def test_bound_chain_is_recomputed(inst):
    cells = checks.parse_cells(decompose_report())
    assert checks.check_bounds(bounds_report(), inst, cells) == []
    report = bounds_report()
    report["links"][-1]["value"] = "5/4"
    assert checks.check_bounds(report, inst, cells) == [
        "bound-chain links differ from the recomputed chain"]


def test_corruption_witness_is_recounted(inst):
    cells = checks.parse_cells(decompose_report())
    report = {"kind": "audit", "k": 1, "l": "1", "n_translates": 4, "passed": False,
              "verdicts": [{"check": "multiplicity_lower", "status": "fail",
                            "witness": {"point": ["0", "0"], "multiplicity": 0}}]}
    assert checks.check_corrupt_audit(report, inst, cells, "drop-cell") == []
    report["verdicts"][0]["witness"]["point"] = ["1/2", "1/2"]
    assert checks.check_corrupt_audit(report, inst, cells, "drop-cell")


def optimize_report(k, u, v, multiplicity):
    det = F(u[0]) * F(v[1]) - F(u[1]) * F(v[0])
    return {"kind": "optimize", "k": k, "feasible": True, "u": u, "v": v,
            "det": str(det), "density": str(F(1, 2) / det), "multiplicity": multiplicity}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_optimal_diagonal_lattice_passes(k):
    c = F(1, 2 * k + 1)
    assert checks.check_optimize(optimize_report(k, ["1", "0"], [str(c), str(c)], k), k) == []


def test_lattice_beating_the_optimum_is_rejected():
    report = optimize_report(1, ["11/10", "0"], ["11/30", "11/30"], 1)
    problems = checks.check_optimize(report, 1)
    assert any("beats the optimum" in p for p in problems)
    assert any("multiplicity recounts to 0" in p for p in problems)


def test_lattice_denser_than_one_percent_is_rejected():
    report = optimize_report(1, ["9/10", "0"], ["3/10", "3/10"], 1)
    assert any("more than 1% above" in p for p in checks.check_optimize(report, 1))


@pytest.mark.parametrize("m, mult", [(2, 1), (3, 3), (4, 6)])
def test_sweep_recounts_grid_multiplicity(m, mult):
    assert checks.lattice_multiplicity(F(1, m), F(0), F(1, m)) == mult
