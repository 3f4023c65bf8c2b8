from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircover import (
    Lattice,
    Rect,
    coverage_certificate,
    hermite_basis,
    lattice_covers,
    lattice_instance,
    lattice_multiplicity,
    perturb_instance,
    pt,
    search_optimal_lattice,
)
from staircover import lattice
from staircover.lattice import _critical_size, _guard_density, _multiplicity_window
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

    @given(st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(-5, 5, max_denominator=12),
            st.fractions(-5, 5, max_denominator=10**15),
        ),
        min_size=4, max_size=4,
    ))
    def test_hermite_basis_is_the_normal_form(self, entries):
        ux, uy, vx, vy = entries
        det = ux * vy - uy * vx
        assume(det != 0)
        lat = Lattice.of(ux, uy, vx, vy) if det > 0 else Lattice.of(vx, vy, ux, uy)
        a, b, c = hermite_basis(lat)
        assert a > 0 and c > 0 and 0 <= b < a
        assert a * c == lat.det
        # u and v lie in the lattice of (a, 0), (b, c), which has their
        # determinant, so the two lattices are equal; the form is unique
        for w in (lat.u, lat.v):
            j = w.y / c
            assert j.denominator == 1
            assert ((w.x - j * b) / a).denominator == 1

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
        # depth does not depend on corner order, so the window keeps row order
        assert sorted(corners, key=lambda p: (p.x, p.y)) == brute

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


def ray_lattice(shape, t) -> Lattice:
    beta, gamma = shape
    return Lattice.of(t, 0, t * beta, t * gamma)


class TestCriticalSize:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_diagonal_family_is_tight(self, k):
        # density (2k+1)/2 at size 1: the search's first bound is already s*
        c = Fraction(1, 2 * k + 1)
        assert _critical_size((c, c), k) == 1
        assert _critical_size((c, c), k + 1) > 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.fractions(0, 3, max_denominator=12),
        st.fractions(Fraction(1, 12), 3, max_denominator=12),
        st.integers(1, 3),
    )
    @example(Fraction(1, 3), Fraction(1, 3), 1)  # s* = 1
    # a k-th sum exactly at the bound, in the last row the bound admits
    @example(Fraction(36, 5), Fraction(86, 15), 6)
    @example(Fraction(1, 38), Fraction(114, 23), 5)
    def test_matches_covers_oracle(self, beta, gamma, k):
        # the feasible scales of the ray are exactly (0, 1/s*]
        t_star = 1 / _critical_size((beta, gamma), k)
        for factor, covers in (
            (1, True), (Fraction(999, 1000), True), (Fraction(1001, 1000), False)
        ):
            lat = ray_lattice((beta, gamma), t_star * factor)
            assert lattice_covers(lat, k) is covers

    def test_depends_on_the_lattice_only(self):
        gamma = Fraction(1, 6)
        for beta in (Fraction(0), Fraction(5, 12)):
            assert _critical_size((beta, gamma), 2) == _critical_size((beta + 2, gamma), 2)

    @pytest.mark.parametrize("k,least,shape", [
        (1, Fraction(1), (Fraction(1, 3), Fraction(1, 3))),
        (2, Fraction(121, 120), (Fraction(5, 12), Fraction(1, 6))),
        (3, Fraction(169, 168), (Fraction(5, 12), Fraction(1, 6))),
    ])
    def test_sriamorn_bound_on_a_grid_of_shapes(self, k, least, shape):
        # the density (s*^2 / 2) / gamma of a shape at its critical size is
        # at least (2k+1)/2 (Sriamorn), so s*^2 >= (2k+1) * gamma
        ratios = {
            (Fraction(i, 12), Fraction(j, 12)):
                _critical_size((Fraction(i, 12), Fraction(j, 12)), k) ** 2
                / ((2 * k + 1) * Fraction(j, 12))
            for i in range(12) for j in range(1, 25)
        }
        assert min(ratios.values()) == least
        assert min(ratios, key=lambda s: (ratios[s], s)) == shape


class TestInstanceConsistency:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, "5/2"), (2, "3/2")])
    def test_windowed_instances_inherit_coverage(self, k, l):
        inst = lattice_instance(diag_lattice(k), l, k)
        assert coverage_certificate(inst).covers


class TestSearch:
    @pytest.mark.parametrize("k", [True, False, 0])
    def test_rejects_fold_that_is_not_a_positive_int(self, k):
        with pytest.raises(ValueError, match="fold must be a positive integer"):
            search_optimal_lattice(k)

    def test_rejects_fold_above_the_cap(self):
        shape = (Fraction(1, 3), Fraction(1, 3))
        assert _critical_size(shape, lattice._MAX_FOLD) > 0
        with pytest.raises(ValueError, match="fold must be at most 64, got 65"):
            search_optimal_lattice(lattice._MAX_FOLD + 1)

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_rejects_budget_that_is_not_a_positive_int(self, value):
        with pytest.raises(ValueError, match="budget must be at least 1, got"):
            search_optimal_lattice(1, budget=value)

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_rejects_seed_grid_that_is_not_a_positive_int(self, value):
        with pytest.raises(ValueError, match="seed grid must be at least 1, got"):
            search_optimal_lattice(1, seed_grid=value)

    # pinned reports: the lattice, density, multiplicity, evaluations and
    # message of these searches are fixed
    @pytest.mark.parametrize("k,kwargs,u,v,density,evaluations", [
        (1, {"budget": 400}, (1, 0), ("1/3", "1/3"), Fraction(3, 2), 400),
        (2, {"budget": 400, "seed_grid": 3}, ("1/2", 0), ("1/3", "1/3"), Fraction(3), 400),
        (3, {"budget": 400, "seed_grid": 6}, ("6/7", 0), ("1/7", "1/7"), Fraction(49, 12), 400),
        (1, {}, (1, 0), ("1/3", "1/3"), Fraction(3, 2), 1574),
        (2, {}, (1, 0), ("4915/24576", "4915/24576"), Fraction(12288, 4915), 2083),
        (3, {}, ("24576/24577", 0), ("1/7", "1/7"), Fraction(172039, 49152), 2068),
        # the whole budget spent: the exits of phases 2 and 3 on the budget
        (2, {"seed_grid": 3}, ("1242763607503/1624064000000", 0),
         ("1723713123606661/6652166144000000", "1242763607503/5033164800000"),
         Fraction(4087090878873600000000000, 1544461384133870637895009), 6000),
        (4, {}, ("10053837233269/26755891200000", 0),
         ("329976991833121849/1315105564262400000", "10053837233269/40265318400000"),
         Fraction(538667239121879040000000000, 101079643113066060720426361), 6000),
    ])
    def test_pinned_reports(self, k, kwargs, u, v, density, evaluations):
        report = search_optimal_lattice(k, **kwargs)
        assert report.lattice == Lattice.of(*u, *v)
        assert report.density == density
        assert report.multiplicity == k
        assert report.evaluations == evaluations
        assert report.message == "search complete"

    def test_final_depth_check_gates_the_critical_size(self, monkeypatch):
        monkeypatch.setattr(lattice, "lattice_multiplicity", lambda lat: 0)
        with pytest.raises(AssertionError, match="exact verifier bug"):
            search_optimal_lattice(1, budget=60, seed_grid=4)

    def test_density_guard_fires_inside_the_search(self, monkeypatch):
        # a critical size 9/10 of the true one puts the shape (1/3, 1/3)
        # below (2k+1)/2; the guard must raise before the final depth check
        true_size = lattice._critical_size
        monkeypatch.setattr(
            lattice, "_critical_size", lambda shape, k: true_size(shape, k) * Fraction(9, 10)
        )
        monkeypatch.setattr(
            lattice, "lattice_multiplicity", lambda lat: pytest.fail("depth check reached")
        )
        with pytest.raises(AssertionError, match="beats the optimum"):
            search_optimal_lattice(1, budget=60, seed_grid=4)

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
            1, budget=60, seed_grid=4, warm_starts=((Fraction(1, 3), Fraction(1, 3)),)
        )
        assert report.feasible
        assert report.density == Fraction(3, 2)

    def test_found_lattice_is_verified(self):
        report = search_optimal_lattice(1, budget=400, seed_grid=4)
        assert report.feasible
        assert report.multiplicity >= 1
        assert report.density >= Fraction(3, 2)  # never beats the optimum

    def test_density_guard_is_exact(self):
        _guard_density(1, Fraction(3, 2))
        with pytest.raises(AssertionError, match="exact verifier bug"):
            _guard_density(1, Fraction(3, 2) - Fraction(1, 10**12))


class TestPerturb:
    def test_zero_magnitude_is_identity(self, quarters):
        assert perturb_instance(quarters, 0, seed=1) is quarters

    def test_slack_covering_survives_perturbation(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)  # 3-fold family, k=2 slack
        out = perturb_instance(inst, "1/64", seed=7)
        assert out.k == inst.k and out.size == inst.size
        assert out.corners != inst.corners
        assert coverage_certificate(out).covers

    def test_determinism(self):
        inst = lattice_instance(grid_lattice(3), 1, 2)
        assert perturb_instance(inst, "1/64", seed=3).corners == perturb_instance(
            inst, "1/64", seed=3
        ).corners

    def test_oversized_magnitude_errors(self, quarters):
        with pytest.raises(ValueError, match="no covering-preserving"):
            perturb_instance(quarters, 1, seed=0)

    def test_rejects_negative_magnitude(self, quarters):
        with pytest.raises(ValueError):
            perturb_instance(quarters, "-1/4", seed=0)
