import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircover import (
    decompose,
    density_chain,
    max_stair_area,
    pt,
    stair_area_bound,
)
from _oracles import (
    Triangle, density_chain_reference, grid_max_stair_area, grid_stair_max_bruteforce,
    max_stair_in_triangle, stair_area,
)
from conftest import diag_lattice, grid_lattice, rect_area
from staircover.geom import StairPolygon
from staircover.lattice import lattice_instance
from test_verification import generic_families, small_instances


class TestAreaFormula:
    def test_hand_values(self):
        assert max_stair_area(0) == Fraction(1, 4)
        assert max_stair_area(1) == Fraction(1, 3)
        assert max_stair_area(3) == Fraction(2, 5)

    def test_increasing_and_below_half(self):
        values = [max_stair_area(r) for r in range(64)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < Fraction(1, 2) for v in values)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            max_stair_area(-1)
        with pytest.raises(ValueError):
            stair_area_bound(-Fraction(1, 2))

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_counts(self, flag):
        with pytest.raises(ValueError, match="stair count must be a nonnegative integer"):
            max_stair_area(flag)
        with pytest.raises(ValueError, match="stair count must be a nonnegative integer"):
            grid_max_stair_area(flag, 12)


class TestBoundExtension:
    def test_agrees_with_integer_values(self):
        for r in range(65):
            assert stair_area_bound(r) == max_stair_area(r)

    def test_pointwise_values(self):
        assert stair_area_bound(Fraction(1, 2)) == Fraction(3, 10)
        assert stair_area_bound(5) == Fraction(3, 7)  # 2k-1 at k=3

    @given(st.fractions(min_value=0, max_value=50, max_denominator=40),
           st.fractions(min_value=0, max_value=50, max_denominator=40))
    def test_monotone(self, x, y):
        if x <= y:
            assert stair_area_bound(x) <= stair_area_bound(y)

    @given(st.fractions(min_value=0, max_value=40, max_denominator=20),
           st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=20))
    def test_concave_by_second_difference(self, x, h):
        left, mid, right = (stair_area_bound(x + i * h) for i in range(3))
        assert left + right <= 2 * mid


class TestDensityFormula:
    def test_two_forms_agree_exactly(self):
        # (2k + 1) / 2 == k |T| / A(2k - 1) with |T| = 1/2
        for k in range(1, 11):
            assert Fraction(2 * k + 1, 2) == k * Fraction(1, 2) / max_stair_area(2 * k - 1)


class TestExtremalStair:
    @pytest.mark.parametrize("r", range(7))
    def test_area_is_attained(self, r):
        stair = max_stair_in_triangle(r)
        assert Fraction(stair.scaled_area(), stair.scale**2) == max_stair_area(r)

    @pytest.mark.parametrize("r", range(7))
    def test_contained_in_closed_triangle(self, r):
        stair = max_stair_in_triangle(r)
        tri = Triangle.at(0, 0)
        for rect in stair.to_rects():
            assert tri.contains(pt(rect.x0, rect.y0))
            # open upper-right corner only approaches the hypotenuse
            assert rect.x1 + rect.y1 <= 1

    def test_examples(self):
        assert rect_area(max_stair_in_triangle(0).to_rects()[0]) == Fraction(1, 4)
        s = max_stair_in_triangle(1)
        assert s.x_breaks == (0, Fraction(1, 3), Fraction(2, 3))
        assert s.y_breaks == (Fraction(2, 3), Fraction(1, 3), 0)


class TestGridSearch:
    @pytest.mark.parametrize("r", (0, 1))
    def test_dp_matches_bruteforce_enumeration(self, r):
        for g in (4, 6, 8):
            if g >= r + 2:
                assert grid_max_stair_area(r, g) == grid_stair_max_bruteforce(r, g)

    def test_never_exceeds_closed_form(self):
        for r in range(5):
            assert grid_max_stair_area(r, 24) <= max_stair_area(r)

    def test_exact_when_grid_divisible(self):
        # uniform optimum has breaks at multiples of 1/(r+2)
        assert grid_max_stair_area(0, 12) == max_stair_area(0)
        assert grid_max_stair_area(1, 12) == max_stair_area(1)
        assert grid_max_stair_area(2, 12) == max_stair_area(2)

    def test_coarsest_grid_holds_the_uniform_optimum(self):
        # grid = r + 2 has exactly the r + 2 breaks of the uniform optimum
        for r in range(25):
            assert grid_max_stair_area(r, r + 2) == max_stair_area(r)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_max_stair_area(7, 8)


class TestDensityChain:
    def test_quarters_chain_values(self, quarters):
        report = density_chain(decompose(quarters))
        assert report.holds
        values = {link.label: link.value for link in report.links}
        assert values["window_area"] == 1
        assert values["cell_area_total"] == 1
        assert values["per_cell_bound"] == 1  # four cells of bound 1/4
        assert values["jensen_bound"] == 1  # 4 * B(0)
        assert values["stair_budget_bound"] == Fraction(4, 3)  # 4 * A(1)
        assert values["instance_bound"] == Fraction(4, 3)

    def test_lattice_fixture_with_slack(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        report = density_chain(decompose(inst))
        assert report.holds
        final = report.links[-1].value
        assert final >= 1  # l^2 <= (N/k) A(2k-1)
        # per-cell bound: every cell fits its stair-count's maximal area
        for _, r, area in report.cells:
            assert area <= max_stair_area(r)

    def test_undersized_family_is_invalid(self, quarters):
        from staircover import CoveringInstance

        broken = CoveringInstance.of(1, quarters.window, quarters.corners[:-1])
        report = density_chain(decompose(broken))
        assert not report.valid and not report.holds
        assert report.links == ()
        assert report.detail == "cells are not all stair polygons"

    def test_missing_cell_does_not_tile(self, quarters):
        result = decompose(quarters)
        assert result.is_stair_decomposition
        report = density_chain(dataclasses.replace(result, cells=result.cells[1:]))
        assert not report.valid and not report.holds
        assert report.links == ()
        assert report.detail == "cells do not tile the window exactly k-fold"
        assert report.n_nonempty == len(result.cells) - 1
        # no cells at all never tile a nonempty window
        empty = density_chain(dataclasses.replace(result, cells=()))
        assert empty.detail == "cells do not tile the window exactly k-fold"

    def test_jensen_step_exact_on_fixture(self):
        inst = lattice_instance(diag_lattice(1), 1, 2)
        result = decompose(inst)
        cells = result.cells
        n = len(cells)
        mean_r = Fraction(sum(c.stair_count for _, c in cells), n)
        lhs = Fraction(sum(max_stair_area(c.stair_count) for _, c in cells), n)
        assert lhs <= stair_area_bound(mean_r)


def _on_other_scales(result):
    """*result* with every other cell rebuilt on the lcm of its own
    breaks' denominators, so that its cells stand on several scales."""
    cells = tuple(
        (i, StairPolygon.of(c.x_breaks, c.y_breaks) if n % 2 else c)
        for n, (i, c) in enumerate(result.cells)
    )
    return dataclasses.replace(result, cells=cells)


class TestChainMatchesFractionSums:
    """`density_chain` sums the cells' int areas on their scales and groups
    the per-cell bound by stair count; the reference sums one `Fraction`
    per cell. Both give the same report, link by link, and each cell's int
    area is its `stair_area`, on the frame's scale or any other."""

    @staticmethod
    def _check(result):
        report = density_chain(result)
        assert report == density_chain_reference(result)
        for _, c in result.cells:
            assert Fraction(c.scaled_area(), c.scale**2) == stair_area(c)
        return report

    def test_corpus(self, corpus):
        for inst in corpus:
            result = decompose(inst)
            report = self._check(result)
            assert report.holds
            mixed = _on_other_scales(result)
            assert {c.scale for _, c in mixed.cells} != {inst.frame.scale}
            assert self._check(mixed) == report

    @pytest.mark.parametrize("lat, l, k", [
        (diag_lattice(1), 2, 1), (diag_lattice(2), 2, 2), (diag_lattice(2), 3, 1),
        (diag_lattice(3), 1, 3), (grid_lattice(2), 3, 1), (grid_lattice(3), 2, 2),
    ])
    def test_benchmark_lattice_families(self, lat, l, k):
        result = decompose(lattice_instance(lat, l, k))
        assert self._check(result).holds
        self._check(_on_other_scales(result))
        self._check(dataclasses.replace(result, cells=result.cells[1:]))  # no tiling

    @given(generic_families())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_generic_families(self, family):
        inst, holed = family
        result = decompose(inst)
        assert self._check(result).valid == (not holed)
        self._check(_on_other_scales(result))

    @given(small_instances())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_small_instances(self, inst):
        self._check(_on_other_scales(decompose(inst)))
