"""Acceptance suite.

One test per acceptance criterion, each asserting its exact tolerance and
printing a PASS line (run with `pytest -s tests/test_acceptance.py` to see
them). The instance corpus (the `corpus` fixture in conftest.py) is
deterministic: lattice families materialized over several windows plus
seeded covering-preserving perturbations, every one re-verified by the exact
coverage certificate before use.
"""

from fractions import Fraction

import pytest

from staircover import (
    CoveringInstance,
    StairPolygon,
    decompose,
    density_chain,
    max_stair_area,
    pt,
    run_audits,
    search_optimal_lattice,
    verify_exact_tiling,
)
from staircover.verification import (
    FAIL,
    PASS,
    audit_boundary_cut,
    audit_corner_counts,
    audit_disjointness,
    audit_inner_corners,
)
from staircover.fileio import InstanceFormatError, parse_instance
from _oracles import (
    Triangle,
    cell_matches_set_formula,
    grid_max_stair_area,
    max_stair_in_triangle,
    stair_rect,
)
from conftest import corner_frame


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_formula_suite():
    assert max_stair_area(0) == Fraction(1, 4)
    assert max_stair_area(1) == Fraction(1, 3)
    assert max_stair_area(3) == Fraction(2, 5)
    for k in range(1, 11):
        assert Fraction(2 * k + 1, 2) == k * Fraction(1, 2) / max_stair_area(2 * k - 1)
    _report("1 formula-suite", "A(0)=1/4 A(1)=1/3 A(3)=2/5; density=(2k+1)/2 for k=1..10, exact")


def test_criterion_2_decomposition_matches_set_formula(corpus):
    cells_checked = 0
    for inst in corpus:
        result = decompose(inst)
        assert result.is_stair_decomposition, "covering produced a non-stair cell"
        cells = dict(result.cells)
        for i in range(inst.size):
            assert cell_matches_set_formula(inst, i, cells.get(i)), (
                f"cell {i} disagrees with the set-formula oracle (k={inst.k})"
            )
            cells_checked += 1
    _report(
        "2 decomposition-oracle",
        f"{len(corpus)} instances, {cells_checked} cells, 100% agreement",
    )


def test_criterion_3_exact_tiling(corpus):
    for inst in corpus:
        result = decompose(inst)
        verdict = verify_exact_tiling(result.stair_cells(), inst.k, inst.window)
        assert verdict.passed, f"not an exact {inst.k}-fold tiling: {verdict.detail}"
    _report("3 exact-tiling", f"{len(corpus)} instances tile exactly k-fold")


def test_criterion_4_audits_pass_and_counterexamples_fail(corpus):
    for inst in corpus:
        report = run_audits(inst)
        assert report.passed, [v for v in report.verdicts if v.status != PASS]

    # planted counterexamples: every audit must detect its own violation
    sq = stair_rect
    one = Fraction(1)
    # repeated corners, the one violation of the minimal-corner cut, never
    # reach an audit: the constructor and the parser refuse them
    dup = [(0, 0), (0, 0), ("1/2", "1/2")]
    with pytest.raises(ValueError, match=r"distinct; repeated \(0, 0\)$"):
        CoveringInstance.of(1, one, dup)
    with pytest.raises(InstanceFormatError, match=r"^translates: corners must be pairwise"):
        parse_instance({"k": 1, "l": "1", "translates": [[str(x), str(y)] for x, y in dup]})

    upper, _, tiling = audit_disjointness([sq(0, 1, 0, 1)] * 2, 1, one)
    assert upper.status == tiling.status == FAIL
    _, lower, tiling = audit_disjointness([sq(0, "1/2", 0, 1)], 1, one)
    assert lower.status == tiling.status == FAIL

    directed, _ = audit_boundary_cut(
        corner_frame((pt(0, 0), pt("1/2", "1/2"))),
        ((0, sq(0, 1, 0, 1)), (1, sq("1/2", "3/4", "1/2", "3/4"))),
    )
    assert directed.status == FAIL
    _, pairwise = audit_boundary_cut(
        corner_frame((pt(0, 0), pt("1/4", "-1/4"))),
        ((0, sq(0, 1, 0, 1)), (1, sq("1/2", "3/2", "-1/2", "1/2"))),
    )
    assert pairwise.status == FAIL

    l_shape = StairPolygon.of((0, 1, 2), (2, 1, 0))
    assert audit_inner_corners(((0, l_shape), (1, sq("1/2", 2, 1, 2)))).status == FAIL

    staircase = StairPolygon.of((0, 1, 2, 3), (3, 2, 1, 0))
    c_lower, _, _, _ = audit_corner_counts(
        ((0, staircase), (1, sq("-1/2", 3, 2, 3)), (2, sq(2, 3, 1, 2))), 1
    )
    assert c_lower.status == FAIL
    nested = (
        (0, sq(0, 2, 0, 2)),
        (1, sq("1/2", 1, "1/2", 1)),
        (2, sq("5/8", "3/4", "5/8", "3/4")),
        (3, sq("21/32", "11/16", "21/32", "11/16")),
    )
    _, c_upper, _, _ = audit_corner_counts(nested, 1)
    assert c_upper.status == FAIL
    far_staircase = StairPolygon.of((4, 5, 6, 7), (3, 2, 1, 0))
    _, _, c_total, _ = audit_corner_counts(((0, staircase), (1, far_staircase)), 1)
    assert c_total.status == FAIL

    tiling = verify_exact_tiling([sq(0, 1, 0, 1)] * 2, 1, one)
    assert not tiling.passed  # duplicated cell: multiplicity 2

    _report(
        "4 structural-audits",
        f"all audits pass on {len(corpus)} instances; 9 planted counterexamples all detected",
    )


def test_criterion_5_density_chain(corpus):
    for inst in corpus:
        report = density_chain(decompose(inst))
        assert report.valid and report.holds, report.detail
        values = {link.label: link.value for link in report.links}
        assert values["window_area"] == inst.window**2
        assert values["window_area"] <= values["stair_budget_bound"]
        assert values["stair_budget_bound"] <= values["instance_bound"]
    _report("5 density-chain", f"chain holds link-by-link on {len(corpus)} instances")


@pytest.mark.parametrize("k", (1, 2, 3))
def test_criterion_6_lattice_density_reproduction(k):
    report = search_optimal_lattice(k, budget=6000, seed_grid=6)
    assert report.feasible, report.message
    assert report.multiplicity >= k
    target = report.target_density
    assert report.density <= target * Fraction(101, 100), (
        f"density {report.density} misses 1% tolerance around {target}"
    )
    # optimality guard: a verified lattice below the optimum is a bug
    assert report.density >= target - Fraction(1, 10**9)
    rel = float((report.density - target) / target)
    _report(
        f"6 lattice-density k={k}",
        f"density {float(report.density):.6f} vs {target} (gap {rel:.4%}, "
        f"multiplicity {report.multiplicity} exact, {report.evaluations} evaluations)",
    )


def test_criterion_7_max_stair_grid_search():
    tri = Triangle.at(0, 0)
    for r in range(7):
        bound = max_stair_area(r)
        grid_best = grid_max_stair_area(r, 60)
        assert grid_best <= bound, f"grid stair beats the closed form at r={r}"
        if 60 % (r + 2) == 0:
            assert grid_best == bound
        stair = max_stair_in_triangle(r)
        assert Fraction(stair.scaled_area(), stair.scale**2) == bound
        assert stair.stair_count == r
        for rect in stair.to_rects():
            assert tri.contains(pt(rect.x0, rect.y0))
            assert rect.x1 + rect.y1 <= 1
    _report(
        "7 max-stair-oracle",
        "1/60-grid search never exceeds (r+1)/(2(r+2)) for r<=6; construction attains it",
    )
