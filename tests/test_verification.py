import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircover import (
    CoveringInstance,
    Lattice,
    Rect,
    StairPolygon,
    Triangle,
    coverage_certificate,
    decompose,
    is_k_fold_covering,
    multiplicity_grid,
    pt,
    rat,
    run_audits,
    verify_exact_tiling,
)
from staircover import arrangement
from staircover.arrangement import min_depth
from staircover.fileio import report_audit
from staircover.verification import (
    FAIL,
    PASS,
    SKIP,
    AuditVerdict,
    audit_boundary_cut,
    audit_corner_counts,
    audit_disjointness,
    audit_inner_corners,
    audit_minimal_element,
    _removed_boundary_hit,
    _tiling_proves_depth,
    _within_triangle,
)
from conftest import diag_lattice, grid_lattice
from _oracles import (
    audit_boundary_cut_reference,
    depth_at,
    exact_tiling_reference,
    min_depth_reference,
    removed_boundary_hit_reference,
)
from staircover.cli import _corrupt
from staircover.lattice import lattice_instance


def sq(x0, x1, y0, y1) -> StairPolygon:
    return StairPolygon.rect(x0, x1, y0, y1)


def hand_built(k, l, corners) -> CoveringInstance:
    """An instance that skips validation, so its corners may repeat."""
    inst = object.__new__(CoveringInstance)
    object.__setattr__(inst, "k", k)
    object.__setattr__(inst, "window", rat(l))
    object.__setattr__(inst, "corners", tuple(pt(x, y) for x, y in corners))
    return inst


def quarter_cells():
    return [
        sq(0, "1/2", 0, "1/2"),
        sq(0, "1/2", "1/2", 1),
        sq("1/2", 1, 0, "1/2"),
        sq("1/2", 1, "1/2", 1),
    ]


class TestCoverageCertificate:
    def test_quarters_cover_once(self, quarters):
        cert = coverage_certificate(quarters)
        assert cert.min_depth == 1
        assert cert.covers
        assert depth_at(quarters.corners, cert.witness) == 1

    def test_single_triangle_leaves_far_corner(self):
        inst = CoveringInstance.of(1, 1, [(0, 0)])
        cert = coverage_certificate(inst)
        assert cert.min_depth == 0
        assert cert.witness.x + cert.witness.y > 1
        assert not is_k_fold_covering(inst)

    def test_third_grid_covers_twice(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)
        cert = coverage_certificate(inst)
        assert cert.min_depth == 3
        assert is_k_fold_covering(inst)

    def test_invariant_under_permutation(self, quarters):
        shuffled = CoveringInstance(
            quarters.k, quarters.window, tuple(reversed(quarters.corners))
        )
        assert coverage_certificate(shuffled).min_depth == 1

    def test_invariant_under_window_disjoint_translate(self, quarters):
        extended = CoveringInstance(
            quarters.k, quarters.window, quarters.corners + (pt(7, 7), pt(-9, 0))
        )
        assert coverage_certificate(extended).min_depth == 1

    def test_finds_sliver_beyond_float_resolution(self):
        # raising one quarter by 10^-19 opens an uncovered sliver far below
        # float resolution; the bignum sampling path must still find it
        eps = Fraction(1, 10**19)
        inst = CoveringInstance.of(
            1, 1, [(0, 0), (0, Fraction(1, 2) + eps), ("1/2", 0), ("1/2", "1/2")]
        )
        cert = coverage_certificate(inst)
        assert cert.min_depth == 0
        w = cert.witness
        assert w.x + w.y > 1 and Fraction(1, 2) < w.y < Fraction(1, 2) + eps

    def test_depth_additivity_over_disjoint_windows(self, quarters):
        shift = rat(3)
        shifted = [pt(c.x + shift, c.y) for c in quarters.corners]
        dropped = shifted[:-1]  # right-hand group has a hole
        win_left = Rect.of(0, 1, 0, 1)
        win_right = Rect.of(3, 4, 0, 1)
        union = list(quarters.corners) + dropped
        assert min_depth(union, win_left)[0] == min_depth(quarters.corners, win_left)[0] == 1
        assert min_depth(union, win_right)[0] == min_depth(dropped, win_right)[0] == 0


class TestExactTiling:
    def test_quarter_partition(self):
        verdict = verify_exact_tiling(quarter_cells(), 1, rat(1))
        assert verdict == AuditVerdict("exact_tiling", PASS, "all grid cells have multiplicity 1")

    def test_missing_cell_detected(self):
        verdict = verify_exact_tiling(quarter_cells()[1:], 1, rat(1))
        assert not verdict.passed
        assert verdict.witness["multiplicity"] == 0
        assert pt(*verdict.witness["point"]).x < Fraction(1, 2)

    def test_duplicate_cell_detected(self):
        cells = quarter_cells() + [quarter_cells()[0]]
        verdict = verify_exact_tiling(cells, 1, rat(1))
        assert not verdict.passed
        assert verdict.witness["multiplicity"] == 2
        assert verdict.detail == "multiplicity 2 != 1"

    def test_empty_family_fails_with_witness(self):
        verdict = verify_exact_tiling([], 1, rat(1))
        assert not verdict.passed and verdict.witness["multiplicity"] == 0

    def test_cell_outside_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            verify_exact_tiling([sq(0, 2, 0, 2)], 1, rat(1))

    def test_multiplicity_grid_counts(self):
        xs, ys, counts = multiplicity_grid([sq(0, 1, 0, 1), sq("1/2", 1, 0, 1)], rat(1))
        assert counts.max() == 2 and counts.min() == 1

    def test_holds_on_verified_covering_decompositions(self):
        for k, lat in ((1, diag_lattice(1)), (2, diag_lattice(2)), (2, grid_lattice(3))):
            inst = lattice_instance(lat, "3/2", k)
            assert is_k_fold_covering(inst)
            result = decompose(inst)
            assert result.is_stair_decomposition
            assert verify_exact_tiling(result.stair_cells(), k, inst.window).passed


class TestAuditsOnRealInstances:
    def test_quarters_all_pass(self, quarters):
        report = run_audits(quarters)
        assert report.passed
        assert {v.status for v in report.verdicts} == {PASS}
        assert report.stats["sum_stair_counts"] == 0

    def test_lattice_instances_all_pass(self):
        for k, lat, l in ((1, diag_lattice(1), 2), (2, diag_lattice(2), 1), (3, diag_lattice(3), 1)):
            report = run_audits(lattice_instance(lat, l, k))
            assert report.passed, [v for v in report.verdicts if v.status != PASS]
            total = sum(c.stair_count for _, c in report.result.cells)
            assert report.stats["sum_stair_counts"] == total
            assert report.verdict("stair_count_total").detail.startswith(f"sum r_i = {total} <=")

    def test_non_covering_fails_and_skips(self):
        report = run_audits(CoveringInstance.of(1, 1, [(0, 0)]))
        assert not report.passed
        assert report.verdict("cell_shape").status == FAIL
        assert report.verdict("exact_tiling").status == FAIL
        assert report.verdict("stair_count_total").status == SKIP
        # the tiling witness is a genuine uncovered point, re-checkable
        w = report.verdict("exact_tiling").witness
        p = pt(w["point"][0], w["point"][1])
        assert depth_at(report.result.instance.corners, p) == w["multiplicity"] == 0


class TestPlantedCounterexamples:
    def test_minimal_corner_cut_fails_on_duplicate_translates(self):
        inst = hand_built(1, 1, [(0, 0), (0, 0), (0, "1/2"), ("1/2", 0), ("1/2", "1/2")])
        verdict = audit_minimal_element(inst)
        assert verdict.status == FAIL
        assert "does not cut" in verdict.detail
        assert (verdict.witness["minimal"], verdict.witness["other"]) == (0, 1)

    def test_minimal_corner_cut_fails_on_covered_duplicate(self):
        # T(0,0) alone covers the window, yet the repeated T(1/4,0) meets it
        inst = hand_built(1, "1/2", [(0, 0), ("1/4", 0), ("1/4", 0)])
        verdict = audit_minimal_element(inst)
        assert verdict.status == FAIL
        w = verdict.witness
        assert (w["minimal"], w["other"]) == (1, 2)
        p = pt(*w["point"])
        assert 0 <= p.x < inst.window and 0 <= p.y < inst.window
        assert all(Triangle(inst.corners[i]).contains(p) for i in (1, 2))

    @pytest.mark.parametrize("repeated", [(2, 2), (-2, -2), ("1/2", 1)])
    def test_minimal_corner_cut_passes_on_duplicate_missing_the_window(self, repeated):
        quarters = [(0, 0), (0, "1/2"), ("1/2", 0), ("1/2", "1/2")]
        inst = hand_built(1, 1, quarters + [repeated, repeated])
        assert audit_minimal_element(inst).status == PASS

    def test_multiplicity_upper_fails_on_duplicate_cell(self):
        cells = [sq(0, 1, 0, 1), sq(0, 1, 0, 1)]
        upper, lower, tiling = audit_disjointness(cells, 1, rat(1))
        assert upper.status == FAIL and lower.status == PASS
        assert tiling.status == FAIL and tiling.witness == upper.witness

    def test_multiplicity_lower_fails_on_hole(self):
        upper, lower, tiling = audit_disjointness(quarter_cells()[1:], 1, rat(1))
        assert upper.status == PASS and lower.status == FAIL
        assert lower.witness["multiplicity"] == 0
        assert tiling.status == FAIL and tiling.witness == lower.witness

    def test_boundary_vs_cutter_fails_on_overlapping_fakes(self):
        corners = (pt(0, 0), pt("1/2", "1/2"))
        fake_cells = ((0, sq(0, 1, 0, 1)), (1, sq("1/2", "3/4", "1/2", "3/4")))
        directed, _ = audit_boundary_cut(corners, fake_cells)
        assert directed.status == FAIL
        assert directed.witness["cutter"] == 1 and directed.witness["cut"] == 0
        # witness point is on cell 1's removed boundary and inside cell 0
        p = pt(*directed.witness["point"])
        assert fake_cells[0][1].contains(p) and not fake_cells[1][1].contains(p)

    def test_boundary_one_sided_fails_when_both_directions_hit(self):
        corners = (pt(0, 0), pt("1/4", "-1/4"))
        cells = ((0, sq(0, 1, 0, 1)), (1, sq("1/2", "3/2", "-1/2", "1/2")))
        _, pairwise = audit_boundary_cut(corners, cells)
        assert pairwise.status == FAIL

    def test_boundary_passes_on_quarters(self, quarters):
        result = decompose(quarters)
        directed, pairwise = audit_boundary_cut(quarters.corners, result.cells)
        assert directed.status == PASS and pairwise.status == PASS

    def test_corner_anchor_column_fails_on_shifted_cover(self):
        l_shape = StairPolygon.of((0, 1, 2), (2, 1, 0))
        off_anchor = sq("1/2", 2, 1, 2)  # contains the corner, anchored at x=1/2
        verdict = audit_inner_corners(((0, l_shape), (1, off_anchor)))
        assert verdict.status == FAIL
        assert verdict.witness["point"] == ["1", "1"]

    def test_corner_anchor_column_passes_on_true_tiling(self):
        l_shape = StairPolygon.of((0, 1, 2), (2, 1, 0))
        block = sq(1, 2, 1, 2)
        verdict = audit_inner_corners(((0, l_shape), (1, block)))
        assert verdict.status == PASS

    def test_anchor_count_lower_fails_when_corners_are_orphaned(self):
        staircase = StairPolygon.of((0, 1, 2, 3), (3, 2, 1, 0))
        top = sq("-1/2", 3, 2, 3)  # anchor outside the staircase
        side = sq(2, 3, 1, 2)
        lower, _, _, _ = audit_corner_counts(((0, staircase), (1, top), (2, side)), 1)
        assert lower.status == FAIL
        assert lower.witness["cell"] == 0

    def test_anchor_count_upper_fails_on_nested_anchors(self):
        cells = (
            (0, sq(0, 2, 0, 2)),
            (1, sq("1/2", 1, "1/2", 1)),
            (2, sq("5/8", "3/4", "5/8", "3/4")),
            (3, sq("21/32", "11/16", "21/32", "11/16")),
        )
        _, upper, _, _ = audit_corner_counts(cells, 1)
        assert upper.status == FAIL

    def test_stair_count_total_fails_on_stair_heavy_cells(self):
        s1 = StairPolygon.of((0, 1, 2, 3), (3, 2, 1, 0))
        s2 = StairPolygon.of((4, 5, 6, 7), (3, 2, 1, 0))
        _, _, total, _ = audit_corner_counts(((0, s1), (1, s2)), 1)
        assert total.status == FAIL
        assert total.witness == {"total": 4, "limit": 2}

    def test_corner_counts_pass_on_true_fixture(self):
        staircase = StairPolygon.of((0, 1, 2, 3), (3, 2, 1, 0))
        top = sq(1, 3, 2, 3)
        side = sq(2, 3, 1, 2)
        cells = ((0, staircase), (1, top), (2, side))
        assert verify_exact_tiling([c for _, c in cells], 1, rat(3)).passed
        lower, upper, total, stats = audit_corner_counts(cells, 1)
        assert (lower.status, upper.status, total.status) == (PASS, PASS, PASS)
        assert stats["anchor_counts"] == {0: 2, 1: 0, 2: 0}


def _copy_cell(result, src, dst):
    """Cell dst replaced by a copy of cell src: a hole and a double cover."""
    cells = list(result.cells)
    cells[dst] = (cells[dst][0], cells[src][1])
    return dataclasses.replace(result, cells=tuple(cells))


class TestExactTilingFromBounds:
    EDITS = {
        "none": lambda r: r,
        "dup-cell": lambda r: _corrupt(r, "dup-cell"),
        "drop-cell": lambda r: _corrupt(r, "drop-cell"),
        "shrink-cell": lambda r: _corrupt(r, "shrink-cell"),
        "copy-1-over-0": lambda r: _copy_cell(r, 1, 0),
        "copy-0-over-1": lambda r: _copy_cell(r, 0, 1),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize(
        "k,lattice,l", [(1, diag_lattice(1), 1), (2, diag_lattice(2), "3/2"), (3, grid_lattice(3), 1)]
    )
    def test_verdicts_match_grid_point_count(self, edit, k, lattice, l):
        inst = lattice_instance(lattice, l, k)
        result = self.EDITS[edit](decompose(inst))
        report = run_audits(inst, result)
        expected = exact_tiling_reference(result.stair_cells(), k, inst.window)
        for verdict in (
            report.verdict("exact_tiling"),
            verify_exact_tiling(result.stair_cells(), k, inst.window),
        ):
            w = verdict.witness
            got = (pt(*w["point"]), w["multiplicity"]) if w else None
            assert (verdict.status == PASS, got) == (expected is None, expected)
        if edit.startswith("copy"):
            assert report.verdict("multiplicity_upper").status == FAIL
            assert report.verdict("multiplicity_lower").status == FAIL


@st.composite
def small_instances(draw):
    """k <= 3 and 1..20 distinct corners drawn at random from a 1/q grid
    over [-1/2, l)^2, where enough triangles meet the window that a good
    share of the draws cover it."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(1, 3)
    l = rng.choice((Fraction(1, 2), Fraction(1)))
    q = rng.choice((2, 3, 4))
    grid = [Fraction(n, q) for n in range(-(q // 2), int(l * q))]
    points = [(x, y) for x in grid for y in grid]
    corners = rng.sample(points, rng.randint(1, min(20, len(points))))
    return CoveringInstance.of(k, l, corners)


class TestTilingCertificateCrossCheck:
    @given(small_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_stair_tiling_iff_covering(self, inst):
        # cells lie in their own triangles, so an exact k-fold tiling proves
        # k-fold coverage; the paper's decomposition theorem gives the converse
        result = decompose(inst)
        tiles = result.is_stair_decomposition and verify_exact_tiling(
            result.stair_cells(), inst.k, inst.window
        ).passed
        assert tiles == coverage_certificate(inst).covers


@st.composite
def generic_families(draw):
    """(instance, holed): the diagonal lattice family of fold k shrunk by
    1/8, every corner shifted down-left by less than 1/16 per coordinate
    onto the 1/997 grid, which still covers the window k-fold (a point in
    the shrunk triangle at p lies in the full one at p - e); holed, all but
    k - 1 of the triangles through one point are dropped."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.choice((1, 2))
    l = rng.choice((Fraction(1), Fraction(5, 4)))
    shrink, den = Fraction(1, 8), 997
    c = (1 - shrink) / (2 * k + 1)
    base = lattice_instance(Lattice.of(1 - shrink, 0, c, c), l + 1, k).corners
    top = math.floor(shrink / 2 * den) - 1
    corners = []
    for p in base:
        x = Fraction(math.floor(p.x * den) - rng.randint(0, top), den)
        y = Fraction(math.floor(p.y * den) - rng.randint(0, top), den)
        if x < l and y < l and max(x, 0) + max(y, 0) <= x + y + 1:
            corners.append(pt(x, y))
    holed = rng.random() < 0.5
    if holed:
        hole = pt(l * Fraction(rng.randint(1, 96), 97), l * Fraction(rng.randint(1, 96), 97))
        through = [i for i, p in enumerate(corners) if Triangle(p).contains(hole)]
        dropped = set(rng.sample(through, len(through) - (k - 1)))
        corners = [p for i, p in enumerate(corners) if i not in dropped]
    return CoveringInstance(k, l, tuple(corners)), holed


def _paths_agree(inst, result=None):
    """`coverage_certificate` with the certificate path taken on every scan
    and with it forced off: both must give the broadcast oracle's (depth,
    witness). Returns the certificate."""
    got = []
    for limit in (-1, math.inf):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(arrangement, "_CERTIFY_SLOTS_PER_TRANSLATE", limit)
            got.append(coverage_certificate(inst, result))
    on, off = got
    reference = min_depth_reference(inst.corners, inst.window_rect())
    assert (on.min_depth, on.witness) == (off.min_depth, off.witness) == reference
    return on


def _swap_indices(result, a, b):
    cells = list(result.cells)
    (i, cell_i), (j, cell_j) = cells[a], cells[b]
    cells[a], cells[b] = (j, cell_i), (i, cell_j)
    return dataclasses.replace(result, cells=tuple(cells))


class TestCertificatePath:
    """The certificate-first scan gives the exhaustive (depth, witness)."""

    @given(generic_families())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_generic_families(self, drawn):
        inst, holed = drawn
        cert = _paths_agree(inst)
        assert cert.covers is not holed
        # coverings take the early path, holes fall back to the full scan
        assert _tiling_proves_depth(inst, decompose(inst)) is not holed

    @given(generic_families())
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_generic_families_on_the_bignum_path(self, drawn):
        inst, holed = drawn
        with pytest.MonkeyPatch.context() as m:
            m.setattr(arrangement, "_INT64_LIMIT", 1)
            assert _paths_agree(inst).covers is not holed
            assert _tiling_proves_depth(inst, decompose(inst)) is not holed

    @pytest.mark.parametrize(
        "lattice, l, k, depth",
        [(diag_lattice(2), 3, 1, 2), (grid_lattice(3), 2, 2, 3), (diag_lattice(1), 2, 1, 1)],
    )
    @pytest.mark.parametrize("bignum", [False, True])
    def test_lattices_with_minimum_above_k(self, monkeypatch, lattice, l, k, depth, bignum):
        if bignum:
            monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        inst = lattice_instance(lattice, l, k)
        result = decompose(inst)
        assert _tiling_proves_depth(inst, result)
        assert _paths_agree(inst).min_depth == _paths_agree(inst, result).min_depth == depth

    @pytest.mark.parametrize("mode", ["dup-cell", "drop-cell", "shrink-cell"])
    def test_corrupted_audits_fall_back(self, monkeypatch, mode):
        inst = lattice_instance(diag_lattice(2), "3/2", 2)
        result = _corrupt(decompose(inst), mode)
        assert not _tiling_proves_depth(inst, result)
        _paths_agree(inst, result)
        reports = []
        for limit in (-1, math.inf):
            monkeypatch.setattr(arrangement, "_CERTIFY_SLOTS_PER_TRANSLATE", limit)
            reports.append(report_audit(inst, run_audits(inst, result)))
        assert reports[0] == reports[1]
        assert reports[0]["min_depth"] == 2 and reports[0]["passed"] is False

    def test_swapped_indices_tile_but_are_refused(self):
        inst = lattice_instance(diag_lattice(1), 2, 1)
        result = decompose(inst)
        swapped = _swap_indices(result, 0, 1)
        # the tiling and the distinct indices survive; only containment fails
        assert verify_exact_tiling(swapped.stair_cells(), 1, inst.window).passed
        assert not all(_within_triangle(c, inst.corners[i]) for i, c in swapped.cells)
        assert _tiling_proves_depth(inst, result)
        assert not _tiling_proves_depth(inst, swapped)
        assert _paths_agree(inst, swapped) == _paths_agree(inst, result)

    def test_repeated_index_is_refused(self, quarters):
        # every quarter cell twice under its own index: an exact 2-fold tiling
        # by cells inside their triangles, but each point is in one triangle
        inst = dataclasses.replace(quarters, k=2)
        result = decompose(quarters)
        doubled = dataclasses.replace(result, instance=inst, cells=result.cells * 2)
        assert verify_exact_tiling(doubled.stair_cells(), 2, inst.window).passed
        assert not _tiling_proves_depth(inst, doubled)
        assert _paths_agree(inst, doubled).min_depth == 1

    def test_out_of_range_index_is_refused(self, quarters):
        result = decompose(quarters)
        i, cell = result.cells[-1]
        for bad in (-1, quarters.size):
            cells = result.cells[:-1] + ((bad, cell),)
            assert not _tiling_proves_depth(quarters, dataclasses.replace(result, cells=cells))

    @pytest.mark.parametrize(
        "cell, inside",
        [
            (sq(0, 1, 0, "1/2"), False),  # its top-right corner (1, 1/2) is over x + y = 1
            (sq(0, "1/2", 0, "1/2"), True),  # the closed corner (1/2, 1/2) touches it
            (StairPolygon.of((0, "1/4", "1/2"), ("3/4", "1/2", 0)), True),  # both touch it
            (StairPolygon.of((0, "1/4", "1/2"), ("3/4", "1/2", "-1/4")), False),
            (StairPolygon.of(("-1/4", "1/2"), ("1/2", 0)), False),  # left of the corner
            (StairPolygon.of((0, "1/2"), ("1/2", "-1/4")), False),  # below the corner
        ],
    )
    def test_within_triangle(self, cell, inside):
        assert _within_triangle(cell, pt(0, 0)) is inside


def _random_stair(rng) -> StairPolygon:
    """A stair cell with r <= 2 and breaks on the 1/4 grid of [0, 1]^2."""
    r = rng.randint(0, 2)
    xs = sorted(rng.sample(range(5), r + 2))
    ys = sorted(rng.sample(range(5), r + 2), reverse=True)
    return StairPolygon.of([Fraction(v, 4) for v in xs], [Fraction(v, 4) for v in ys])


def _stair_family(rng):
    """1..8 random stair cells with breaks on the 1/4 grid of [0, 1]^2, each
    with its own random corner on the 1/4 grid of [-1/2, 1)^2; the cells
    overlap freely, so both boundary checks fail often."""
    cells = [_random_stair(rng) for _ in range(rng.randint(1, 8))]
    points = [(Fraction(x, 4), Fraction(y, 4)) for x in range(-2, 4) for y in range(-2, 4)]
    corners = [pt(x, y) for x, y in rng.sample(points, len(cells))]
    return corners, list(enumerate(cells))


def l_stair() -> StairPolygon:
    return StairPolygon.of((0, "1/3", "2/3"), ("2/3", "1/3", 0))


def _closed_boxes_meet(a: StairPolygon, b: StairPolygon) -> bool:
    return (
        a.x_breaks[0] <= b.x_breaks[-1] and b.x_breaks[0] <= a.x_breaks[-1]
        and a.y_breaks[-1] <= b.y_breaks[0] and b.y_breaks[-1] <= a.y_breaks[0]
    )


class TestRemovedBoundaryHit:
    """`_removed_boundary_hit(a, b)`: a point of closure(A) minus A in B."""

    @pytest.mark.parametrize(
        "cell", [l_stair(), sq(0, 1, 0, 1), StairPolygon.of((0, 1, 2, 3), (3, 2, 1, 0))]
    )
    def test_own_boundary_misses_the_cell(self, cell):
        assert _removed_boundary_hit(cell, cell) is None

    def test_cell_on_the_top_edge_is_hit_but_does_not_hit_back(self):
        above = sq(0, "1/3", "2/3", 1)  # touches A only along A's top edge
        assert _removed_boundary_hit(l_stair(), above) == pt(0, "2/3")
        assert _removed_boundary_hit(above, l_stair()) is None

    def test_cell_under_the_top_edge_is_not_hit(self):
        # A's top edge lies along the open top of B's right column
        assert _removed_boundary_hit(sq("1/3", "2/3", 0, "1/3"), l_stair()) is None

    @pytest.mark.parametrize("bottom, witness", [(0, pt("2/3", 0)), ("1/6", pt("2/3", "1/6"))])
    def test_riser_meets_the_closed_left_edge(self, bottom, witness):
        # the last riser runs down to A's bottom; the witness is its lowest point in B
        right = sq("2/3", 1, bottom, "1/3")
        assert _removed_boundary_hit(l_stair(), right) == witness

    def test_matches_segment_search_on_random_pairs(self):
        rng = random.Random(7)
        hits = misses = 0
        for _ in range(3000):
            a, b = _random_stair(rng), _random_stair(rng)
            got = _removed_boundary_hit(a, b)
            assert got == removed_boundary_hit_reference(a, b), (a, b)
            hits += got is not None
            misses += got is None and _closed_boxes_meet(a, b)
        # the 1/4 grid makes shared edges common: both outcomes are frequent
        # among pairs whose closed boxes meet, the only pairs the audit searches
        assert hits >= 1000 and misses >= 1000, (hits, misses)


class TestBoundaryCutMatchesAllPairs:
    """The box-prefiltered audit against the all-pairs reference: equal
    verdicts, details and witnesses."""

    EDITS = ("none", "dup-cell", "drop-cell", "shrink-cell")

    @pytest.mark.parametrize("edit", EDITS)
    def test_acceptance_corpus(self, corpus, edit):
        for inst in corpus:
            result = decompose(inst)
            if edit != "none":
                result = _corrupt(result, edit)
            got = audit_boundary_cut(inst.corners, result.cells)
            assert got == audit_boundary_cut_reference(inst.corners, result.cells)

    @given(small_instances(), st.sampled_from(EDITS + ("copy-1-over-0",)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_decomposed_draws(self, inst, edit):
        result = decompose(inst)
        if len(result.cells) < 2:
            return
        if edit == "copy-1-over-0":
            result = _copy_cell(result, 1, 0)
        elif edit != "none":
            result = _corrupt(result, edit)
        got = audit_boundary_cut(inst.corners, result.cells)
        assert got == audit_boundary_cut_reference(inst.corners, result.cells)

    @pytest.mark.parametrize("small_last, status", [(True, PASS), (False, FAIL)])
    def test_repeated_index_is_judged_by_its_last_entry(self, small_last, status):
        # T(1/2, 1/2) cuts T(0, 0); cell 1's boundary meets the big cell 0
        # but not the small one, so the verdict follows whichever comes last
        corners = (pt(0, 0), pt("1/2", "1/2"))
        big, small = (0, sq(0, 1, 0, 1)), (0, sq(0, "1/4", 0, "1/4"))
        cells = [big, (1, sq("1/2", "3/4", "1/2", "3/4")), small]
        if not small_last:
            cells = [small, cells[1], big]
        got = audit_boundary_cut(corners, cells)
        assert got == audit_boundary_cut_reference(corners, cells)
        assert got[0].status == status

    def test_shuffled_entries_pick_the_first_one_sided_pair_in_entry_order(self):
        # shuffled entries, some with an index repeated by a new cell; the
        # first one-sided failure follows the entries, not the sorted pairs
        reordered = 0
        for seed in range(300):
            rng = random.Random(seed)
            corners, cells = _stair_family(rng)
            rng.shuffle(cells)
            if rng.random() < 0.3:
                cells.append((rng.choice(cells)[0], _random_stair(rng)))
            got = audit_boundary_cut(corners, cells)
            assert got == audit_boundary_cut_reference(corners, cells), seed
            in_index_order = audit_boundary_cut_reference(corners, sorted(dict(cells).items()))
            reordered += got[1] != in_index_order[1]
        assert reordered >= 50, reordered

    def test_random_stair_families(self):
        failed = set()
        for seed in range(300):
            corners, cells = _stair_family(random.Random(seed))
            got = audit_boundary_cut(corners, cells)
            assert got == audit_boundary_cut_reference(corners, cells), seed
            failed.update(v.check for v in got if v.status == FAIL)
        assert failed == {"boundary_vs_cutter", "boundary_one_sided"}


class TestWitnessReproduction:
    def test_tiling_witness_recomputes(self):
        cells = quarter_cells()[1:]
        verdict = verify_exact_tiling(cells, 1, rat(1))
        p = pt(*verdict.witness["point"])
        assert sum(c.contains(p) for c in cells) == verdict.witness["multiplicity"]

    def test_audit_report_witnesses_recompute(self):
        inst = CoveringInstance.of(2, 1, [(0, 0), (0, "1/2"), ("1/2", 0), ("1/2", "1/2")])
        report = run_audits(inst)  # 1-fold family audited as k=2: must fail
        assert not report.passed
        v = report.verdict("exact_tiling")
        assert v.status == FAIL
        # witness carries the coverage depth at an under-covered point; the
        # cells through that point can only be fewer still
        p = pt(*v.witness["point"])
        assert depth_at(inst.corners, p) == v.witness["multiplicity"] < 2
        cells = [c for _, c in report.result.cells]
        assert sum(c.contains(p) for c in cells) <= v.witness["multiplicity"]
