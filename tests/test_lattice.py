from fractions import Fraction

import pytest

from staircover import (
    Lattice,
    Rect,
    hermite_basis,
    is_k_fold_covering,
    lattice_covers,
    lattice_instance,
    lattice_multiplicity,
    perturb_instance,
    pt,
    search_optimal_lattice,
)
from staircover.lattice import _multiplicity_window
from _oracles import translates_meeting_scan
from conftest import diag_lattice, grid_lattice


class TestLatticeBasics:
    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            Lattice.of(1, 0, 2, 0)
        with pytest.raises(ValueError):
            Lattice.of(0, 1, 1, 0)

    def test_density(self):
        assert diag_lattice(1).density == Fraction(3, 2)
        assert grid_lattice(2).density == 2

    def test_hermite_normal_form(self):
        lat = Lattice.of("2/3", "-1/3", "-1/3", "2/3")
        assert hermite_basis(lat) == (1, Fraction(1, 3), Fraction(1, 3))
        a, b, c = hermite_basis(grid_lattice(2))
        assert (a, b, c) == (Fraction(1, 2), 0, Fraction(1, 2))

    def test_hermite_preserves_multiplicity(self):
        lat = Lattice.of("2/3", "-1/3", "-1/3", "2/3")
        a, b, c = hermite_basis(lat)
        norm = Lattice.of(a, 0, b, c)
        assert lattice_multiplicity(lat) == lattice_multiplicity(norm) == 1


SCAN_RADIUS = 30
ENUMERATION_BASES = [
    pytest.param(Lattice.of("1/2", "1/4", "-1/8", "3/8"), id="skew"),
    # hermite_basis reduces the completion (3/4, 1/2) to (1/4, 1/2)
    pytest.param(Lattice.of("1/2", 0, "3/4", "1/2"), id="reduced-mod-a"),
    pytest.param(Lattice.of("3/2", "1/10", "7/5", "1/5"), id="thin"),
    *(pytest.param(diag_lattice(k), id=f"diag{k}") for k in (1, 2, 3)),
    *(pytest.param(grid_lattice(m), id=f"grid{m}") for m in (2, 3)),
]


class TestEnumeration:
    def test_half_grid_window_count(self):
        inst = lattice_instance(grid_lattice(2), 1, 1)
        assert inst.size == 13  # 4x4 candidate block minus 3 disjoint corners

    def test_unit_grid_window_count(self):
        inst = lattice_instance(grid_lattice(1), 1, 1)
        assert set(inst.corners) == {pt(0, 0), pt(-1, 0), pt(0, -1)}

    @pytest.mark.parametrize("lat", ENUMERATION_BASES)
    @pytest.mark.parametrize("l", ["1/2", "3/2", "5/2"])
    def test_matches_box_scan_oracle(self, lat, l):
        inst = lattice_instance(lat, l, 1)
        brute, ring = translates_meeting_scan(lat.u, lat.v, Rect.of(0, l, 0, l), SCAN_RADIUS)
        assert ring == 0
        assert list(inst.corners) == brute  # the order reaches instance files

    @pytest.mark.parametrize("lat", ENUMERATION_BASES)
    def test_multiplicity_window_matches_box_scan_oracle(self, lat):
        window, corners = _multiplicity_window(lat)
        a, b, c = hermite_basis(lat)
        assert window == Rect(Fraction(0), a + b, Fraction(0), c)
        brute, ring = translates_meeting_scan(lat.u, lat.v, window, SCAN_RADIUS)
        assert ring == 0
        assert corners == brute

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            lattice_instance(grid_lattice(2), 0, 1)


class TestMultiplicity:
    def test_unit_grid_cannot_cover(self):
        assert lattice_multiplicity(grid_lattice(1)) == 0

    def test_half_grid_covers_once(self):
        assert lattice_multiplicity(grid_lattice(2)) == 1

    def test_third_grid_covers_thrice(self):
        assert lattice_multiplicity(grid_lattice(3)) == 3

    def test_tall_cell_lattice_fails(self):
        assert lattice_multiplicity(Lattice.of("1/2", 0, 0, 1)) == 0

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_diagonal_family_achieves_fold(self, k):
        assert lattice_multiplicity(diag_lattice(k)) == k
        assert lattice_covers(diag_lattice(k), k)
        assert not lattice_covers(diag_lattice(k), k + 1)

    @pytest.mark.parametrize("c", (Fraction(5, 4), Fraction(3, 2), 2))
    def test_scaling_up_never_gains_multiplicity(self, c):
        for lat in (grid_lattice(2), diag_lattice(1)):
            scaled = Lattice(
                pt(lat.u.x * c, lat.u.y * c), pt(lat.v.x * c, lat.v.y * c)
            )
            assert lattice_multiplicity(scaled) <= lattice_multiplicity(lat)

    def test_large_scaling_kills_coverage(self):
        scaled = Lattice.of(4, 0, 0, 4)
        assert lattice_multiplicity(scaled) == 0


class TestInstanceConsistency:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, "5/2"), (2, "3/2")])
    def test_windowed_instances_inherit_coverage(self, k, l):
        inst = lattice_instance(diag_lattice(k), l, k)
        assert is_k_fold_covering(inst)


class TestSearch:
    def test_budget_one_reports_infeasible(self):
        report = search_optimal_lattice(1, budget=1, seed_grid=6)
        assert not report.feasible
        assert report.message == "infeasible within budget"
        assert report.evaluations == 1

    def test_small_search_is_deterministic(self):
        a = search_optimal_lattice(1, budget=120, seed_grid=4)
        b = search_optimal_lattice(1, budget=120, seed_grid=4)
        assert (a.feasible, a.density, a.evaluations) == (b.feasible, b.density, b.evaluations)

    def test_warm_start_reaches_stored_quality(self):
        report = search_optimal_lattice(
            1, budget=60, seed_grid=4, warm_starts=((1, Fraction(1, 3), Fraction(1, 3)),)
        )
        assert report.feasible
        assert report.density == Fraction(3, 2)

    def test_found_lattice_is_verified(self):
        report = search_optimal_lattice(1, budget=400, seed_grid=4)
        assert report.feasible
        assert report.multiplicity >= 1
        assert report.density >= Fraction(3, 2)  # never beats the optimum


class TestPerturb:
    def test_zero_magnitude_is_identity(self, quarters):
        assert perturb_instance(quarters, 0, seed=1) is quarters

    def test_slack_covering_survives_perturbation(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)  # 3-fold family, k=2 slack
        out = perturb_instance(inst, "1/64", seed=7)
        assert out.k == inst.k and out.size == inst.size
        assert out.corners != inst.corners
        assert is_k_fold_covering(out)

    def test_determinism(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)
        assert perturb_instance(inst, "1/64", seed=3).corners == perturb_instance(
            inst, "1/64", seed=3
        ).corners

    def test_oversized_magnitude_errors(self, quarters):
        with pytest.raises(ValueError, match="no covering-preserving"):
            perturb_instance(quarters, 1, seed=0, max_tries=8)

    def test_rejects_negative_magnitude(self, quarters):
        with pytest.raises(ValueError):
            perturb_instance(quarters, "-1/4", seed=0)
