from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from staircover import (
    CoveringInstance,
    NonStairCell,
    StairPolygon,
    Triangle,
    cut_apex,
    cutter_set,
    cuts,
    decompose,
    pt,
    stair_cell,
)
from _oracles import cell_matches_set_formula
from conftest import diag_lattice, grid_lattice
from test_arrangement import generic_families
from staircover.lattice import lattice_instance


def corner_index(inst, x, y):
    return inst.corners.index(pt(x, y))


class TestInstanceValidation:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            CoveringInstance.of(1, 1, [(0, 0), (0, 0)])

    def test_rejects_bad_fold_and_window(self):
        with pytest.raises(ValueError):
            CoveringInstance.of(0, 1, [(0, 0)])
        with pytest.raises(ValueError):
            CoveringInstance.of(1, 0, [(0, 0)])
        with pytest.raises(ValueError):
            CoveringInstance.of(1, 1, [])


class TestCutterSet(object):
    def test_minimal_corner_is_cut_by_all(self, quarters):
        i = corner_index(quarters, 0, 0)
        assert set(cutter_set(quarters, i)) == {1, 2, 3}

    def test_maximal_corner_has_no_cutters(self, quarters):
        i = corner_index(quarters, "1/2", "1/2")
        assert cutter_set(quarters, i) == ()

    def test_tie_rule_orders_equal_sums(self, quarters):
        i = corner_index(quarters, 0, "1/2")
        expected = {corner_index(quarters, "1/2", 0), corner_index(quarters, "1/2", "1/2")}
        assert set(cutter_set(quarters, i)) == expected

    def test_out_of_range(self, quarters):
        with pytest.raises(IndexError):
            cutter_set(quarters, 99)


class TestCutApex:
    def test_componentwise_max(self):
        assert cut_apex(Triangle.at(0, 0), Triangle.at("1/2", 0)) == pt("1/2", 0)
        assert cut_apex(Triangle.at(0, 0), Triangle.at("1/2", "1/2")) == pt("1/2", "1/2")
        assert cut_apex(Triangle.at(0, "1/2"), Triangle.at("1/2", 0)) == pt("1/2", "1/2")

    def test_apex_lies_in_cut_triangle(self):
        t_i, t_j = Triangle.at(0, "1/2"), Triangle.at("1/2", 0)
        assert t_i.contains(cut_apex(t_i, t_j))

    def test_rejects_non_cutter(self):
        with pytest.raises(ValueError, match="cut"):
            cut_apex(Triangle.at("1/2", 0), Triangle.at(0, 0))
        with pytest.raises(ValueError, match="cut"):
            cut_apex(Triangle.at(0, 0), Triangle.at(1, 1))


class TestStairCell:
    def test_quarter_cells(self, quarters):
        expect = {
            (0, 0): StairPolygon.of((0, "1/2"), ("1/2", 0)),
            (0, Fraction(1, 2)): StairPolygon.of((0, "1/2"), (1, "1/2")),
            (Fraction(1, 2), 0): StairPolygon.of(("1/2", 1), ("1/2", 0)),
            (Fraction(1, 2), Fraction(1, 2)): StairPolygon.of(("1/2", 1), (1, "1/2")),
        }
        for i, corner in enumerate(quarters.corners):
            assert stair_cell(quarters, i) == expect[(corner.x, corner.y)]

    def test_cells_match_set_formula(self, quarters):
        for i in range(quarters.size):
            assert cell_matches_set_formula(quarters, i, stair_cell(quarters, i))

    def test_single_translate_keeps_hypotenuse(self):
        inst = CoveringInstance.of(1, 1, [(0, 0)])
        cell = stair_cell(inst, 0)
        assert isinstance(cell, NonStairCell)
        assert cell.diag_sum == 1
        assert cell.contains(pt("1/2", "1/2"))  # on the hypotenuse, closed
        assert not cell.contains(pt("3/4", "1/2"))
        assert cell.area() == Fraction(1, 2)
        assert cell_matches_set_formula(inst, 0, cell)

    def test_fewer_cutters_than_fold_leaves_whole_triangle(self):
        # k = N: every cutter set is smaller than k, so nothing is removed
        inst = CoveringInstance.of(
            3, 1, [(0, 0), ("-1/8", 0), (0, "-1/8")]
        )
        result = decompose(inst)
        assert not result.cells
        assert len(result.non_stair) == 3
        for i, cell in result.non_stair:
            assert cell_matches_set_formula(inst, i, cell)

    def test_empty_when_outside_window(self):
        inst = CoveringInstance.of(1, 1, [(0, 0), (5, 5)])
        assert stair_cell(inst, 1) is None

    def test_degenerate_single_point_cell(self):
        # the translate reaches the window only at its closed corner point
        inst = CoveringInstance.of(1, 1, [(-1, 0)])
        cell = stair_cell(inst, 0)
        assert isinstance(cell, NonStairCell)
        assert cell.contains(pt(0, 0)) and cell.area() == 0
        assert cell.diagonal_witness() == pt(0, 0)
        assert not cell.contains(pt(0, "1/8"))
        # a second translate swallowing the corner empties the cell entirely
        crowded = CoveringInstance.of(1, 1, [(-1, 0), (0, 0)])
        assert stair_cell(crowded, 0) is None

    def test_empty_cell_in_crowded_corner(self):
        # the late corner translate is completely swallowed by earlier ones
        inst = lattice_instance(diag_lattice(1), 1, 1)
        result = decompose(inst)
        assert result.empty_indices  # some off-window translates contribute nothing
        for i in result.empty_indices:
            assert cell_matches_set_formula(inst, i, None)


class TestDecompose:
    def test_quarters_partition_window(self, quarters):
        result = decompose(quarters)
        assert result.is_stair_decomposition
        assert len(result.cells) == 4
        assert sum(c.area() for _, c in result.cells) == 1  # k * l^2

    def test_anchor_matches_corner_inside_window(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        result = decompose(inst)
        for i, cell in result.cells:
            corner = inst.corners[i]
            if 0 <= corner.x < 1 and 0 <= corner.y < 1:
                assert cell.anchor == corner

    def test_cells_stay_inside_triangle_and_window(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)
        result = decompose(inst)
        for i, cell in result.cells:
            tri = Triangle(inst.corners[i])
            for r in cell.to_rects():
                assert 0 <= r.x0 and r.x1 <= 1 and 0 <= r.y0 and r.y1 <= 1
                # the open corner is a limit of cell points, so it is in the
                # closed triangle exactly when the whole column is
                assert tri.contains(pt(r.x0, r.y0))
                assert r.x1 + r.y1 <= tri.hyp_sum

    def test_lattice_cells_match_set_formula(self):
        for k in (1, 2):
            inst = lattice_instance(diag_lattice(k), 1, k)
            result = decompose(inst)
            assert result.is_stair_decomposition
            for i in range(inst.size):
                assert cell_matches_set_formula(inst, i, result.cell_for(i))

    def test_total_cell_area_is_k_window_area(self):
        for k, lat in ((1, diag_lattice(1)), (2, diag_lattice(2)), (3, grid_lattice(3))):
            inst = lattice_instance(lat, 1, k)
            result = decompose(inst)
            assert sum(c.area() for _, c in result.cells) == k

    def test_indices_partition(self, quarters):
        result = decompose(quarters)
        seen = {i for i, _ in result.cells} | set(result.empty_indices)
        seen |= {i for i, _ in result.non_stair}
        assert seen == set(range(quarters.size))

    @given(generic_families())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_generic_non_covering_cells_match_set_formula(self, family):
        # the holed draws leave gaps in the covering, where cells need not be
        # stair polygons; [0, l)^2 is the least square window holding the
        # drawn window, and so the hole
        k, corners, window, hole = family
        assume(hole is not None)
        inst = CoveringInstance(k, max(window.x1, window.y1), tuple(corners))
        result = decompose(inst)
        for i in range(inst.size):
            assert cell_matches_set_formula(inst, i, result.cell_for(i))


class TestCuttingTransitivity:
    def test_on_fixture_triples(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        tris = inst.triangles()
        n = len(tris)
        # triples with a common point: all three pairwise intersections plus
        # the shared-corner criterion via componentwise max
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if len({a, b, c}) < 3:
                        continue
                    pa, pb, pc = (tris[x].corner for x in (a, b, c))
                    common = pt(max(pa.x, pb.x, pc.x), max(pa.y, pb.y, pc.y))
                    if not all(t.contains(common) for t in (tris[a], tris[b], tris[c])):
                        continue
                    if cuts(tris[a], tris[b]) and cuts(tris[b], tris[c]):
                        assert cuts(tris[a], tris[c])
