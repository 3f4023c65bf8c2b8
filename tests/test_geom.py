from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircover import Point, StairPolygon, pt, rat
from staircover.rational import on_one_scale
from staircover.verification import _cuts
from _oracles import (
    Triangle,
    anchor,
    cuts,
    inner_corners,
    precedes,
    rect_contains,
    stair_area,
    stair_contains,
    stair_interior_contains,
    tri_intersects,
    tri_intersects_oracle,
)
from conftest import rect_area, rect_of

coords = st.fractions(min_value=-2, max_value=2, max_denominator=12)
points = st.builds(Point, coords, coords)
triangles = st.builds(Triangle, points)


def int_cuts(a: Triangle, b: Triangle) -> bool:
    """`verification._cuts` on the two corners, on their least common
    denominator."""
    scale, (ax, ay, bx, by) = on_one_scale((a.corner.x, a.corner.y, b.corner.x, b.corner.y))
    return _cuts((ax, ay), (bx, by), scale)


class TestRational:
    def test_parses_fraction_strings(self):
        assert rat("-2/7") == Fraction(-2, 7)
        assert rat("3") == 3
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)
        with pytest.raises(TypeError):
            rat(True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            rat("1/0")
        with pytest.raises(ValueError):
            rat("abc")

    @pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", " 1e100000000 "])
    def test_rejects_exponent_notation(self, text):
        with pytest.raises(ValueError, match="malformed rational literal"):
            rat(text)

    def test_accepts_decimals(self):
        assert rat("0.25") == Fraction(1, 4)

    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
                    max_size=8))
    @example([0])
    @example([-3])
    @example([Fraction(-5, 6)])
    @example([0, Fraction(0), Fraction(-1, 2), 4])
    def test_on_one_scale_is_the_least_common_denominator(self, values):
        d, ints = on_one_scale(values)
        assert ints == [v * d for v in values]  # each value times d, exactly
        assert d >= 1 and gcd(d, *ints) == 1  # no smaller d makes them all ints


class TestPrecedes:
    def test_smaller_sum_first(self):
        assert precedes(pt(0, 0), pt("1/2", 0))

    def test_tie_broken_by_x(self):
        assert precedes(pt(0, "1/2"), pt("1/2", 0))
        assert not precedes(pt("1/2", 0), pt(0, "1/2"))

    def test_irreflexive(self):
        assert not precedes(pt(0, 0), pt(0, 0))

    @given(points, points)
    def test_total_on_distinct(self, p, q):
        if p == q:
            assert not precedes(p, q) and not precedes(q, p)
        else:
            assert precedes(p, q) != precedes(q, p)

    @given(points, points, points)
    def test_transitive(self, p, q, r):
        if precedes(p, q) and precedes(q, r):
            assert precedes(p, r)


class TestTriangle:
    def test_contains_vertex_and_hypotenuse(self):
        t = Triangle.at(0, 0)
        assert t.contains(pt(0, 0))
        assert t.contains(pt("1/2", "1/2"))
        assert not t.contains(pt("3/4", "1/2"))

    def test_intersects_examples(self):
        assert tri_intersects(Triangle.at(0, 0), Triangle.at("1/2", "1/2"))
        assert not tri_intersects(Triangle.at(0, 0), Triangle.at(1, 1))
        assert tri_intersects(Triangle.at(0, 0), Triangle.at("1/2", 0))

    @given(triangles, triangles)
    @settings(max_examples=300)
    def test_intersects_matches_oracle(self, t1, t2):
        assert tri_intersects(t1, t2) == tri_intersects_oracle(t1, t2)

    def test_intersects_matches_grid_oracle_on_samples(self):
        cases = [
            (Triangle.at(0, 0), Triangle.at("1/2", "1/2")),
            (Triangle.at(0, 0), Triangle.at("9/8", 0)),
            (Triangle.at("-1/3", "2/3"), Triangle.at("1/3", "-2/3")),
        ]
        for t1, t2 in cases:
            assert tri_intersects(t1, t2) == tri_intersects_oracle(t1, t2, grid=24)

    def test_intersects_matches_oracle_on_ten_thousand_pairs(self):
        import random

        rng = random.Random(20240601)
        disagreements = 0
        for _ in range(10_000):
            t1 = Triangle.at(
                Fraction(rng.randint(-24, 24), 12), Fraction(rng.randint(-24, 24), 12)
            )
            t2 = Triangle.at(
                Fraction(rng.randint(-24, 24), 12), Fraction(rng.randint(-24, 24), 12)
            )
            if tri_intersects(t1, t2) != tri_intersects_oracle(t1, t2):
                disagreements += 1
            # the audits' integer cut test, both ways, against `cuts`
            for a, b in ((t1, t2), (t2, t1)):
                if int_cuts(a, b) != cuts(a, b):
                    disagreements += 1
        assert disagreements == 0


class TestCuts:
    """`verification._cuts` against the Fraction `cuts` of the oracles."""

    def test_examples(self):
        for a, b, expected in (
            (Triangle.at("1/2", 0), Triangle.at(0, 0), True),
            (Triangle.at(0, 0), Triangle.at("1/2", 0), False),
            (Triangle.at("1/2", 0), Triangle.at(0, "1/2"), True),
        ):
            assert int_cuts(a, b) is cuts(a, b) is expected

    @given(triangles, triangles)
    @settings(max_examples=300)
    def test_exactly_one_direction_when_intersecting(self, t1, t2):
        assert (int_cuts(t1, t2), int_cuts(t2, t1)) == (cuts(t1, t2), cuts(t2, t1))
        if t1 != t2 and tri_intersects(t1, t2):
            assert int_cuts(t1, t2) != int_cuts(t2, t1)
        else:
            assert not int_cuts(t1, t2) or not int_cuts(t2, t1)

    def test_never_cuts_itself(self):
        t = Triangle.at("1/3", "1/4")
        assert not int_cuts(t, t) and not cuts(t, t)


def area_of(s: StairPolygon) -> Fraction:
    return Fraction(s.scaled_area(), s.scale**2)


def l_stair() -> StairPolygon:
    return StairPolygon.of((0, "1/3", "2/3"), ("2/3", "1/3", 0))


class TestStairPolygon:
    def test_single_rectangle_area(self):
        s = StairPolygon.of((0, "1/2"), ("1/2", 0))
        assert (s.scaled_area(), s.scale) == (1, 2)  # 1/4 on the scale 2

    def test_l_shape_area(self):
        assert area_of(l_stair()) == Fraction(1, 3) == stair_area(l_stair())

    def test_unit_square_area(self):
        s = StairPolygon.of((0, 1), (1, 0))
        assert (s.scaled_area(), s.scale) == (1, 1)

    def test_accessors(self):
        s = l_stair()
        assert (s.xs, s.ys, s.scale) == ((0, 1, 2), (2, 1, 0), 3)  # the lcm scale
        assert s.x_breaks == (0, Fraction(1, 3), Fraction(2, 3))
        assert s.stair_count == 1
        assert anchor(s) == pt(0, 0)
        assert inner_corners(s) == (pt("1/3", "1/3"),)

    def test_half_open_membership(self):
        s = StairPolygon.of((0, "1/2"), ("1/2", 0))
        assert stair_contains(s, pt(0, 0))
        assert not stair_contains(s, pt("1/2", 0))
        assert not stair_contains(s, pt(0, "1/2"))

    def test_validation(self):
        with pytest.raises(ValueError):
            StairPolygon.of((0, 0), (1, 0))
        with pytest.raises(ValueError):
            StairPolygon.of((0, 1), (0, 1))
        with pytest.raises(ValueError):
            StairPolygon.of((0,), (1,))

    def test_to_rects_disjoint_partition(self):
        s = l_stair()
        rects = s.to_rects()
        assert len(rects) == 2
        assert sorted(rect_area(r) for r in rects) == [Fraction(1, 9), Fraction(2, 9)]
        assert sum(rect_area(r) for r in rects) == area_of(s)

    def test_uniform_stair_column_count(self):
        from _oracles import max_stair_in_triangle

        assert len(max_stair_in_triangle(5).to_rects()) == 6

    @given(st.lists(points, min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_membership_equals_exactly_one_rect(self, pts):
        s = l_stair()
        for p in pts:
            assert stair_contains(s, p) == (sum(rect_contains(r, p) for r in s.to_rects()) == 1)

    def test_interior_membership(self):
        s = l_stair()
        assert stair_interior_contains(s, pt("1/6", "1/6"))
        assert not stair_interior_contains(s, pt(0, "1/6"))  # left edge
        assert not stair_interior_contains(s, pt("1/6", 0))  # bottom edge
        # at the internal break the lower top wins
        assert stair_interior_contains(s, pt("1/3", "1/4"))
        assert not stair_interior_contains(s, pt("1/3", "1/2"))


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            rect_of(0, 0, 0, 1)

    def test_half_open_contains(self):
        r = rect_of(0, 1, 0, 1)
        assert rect_contains(r, pt(0, 0))
        assert not rect_contains(r, pt(1, 0))
