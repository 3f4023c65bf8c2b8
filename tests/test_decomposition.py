import cProfile
import random
import re
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircover import (
    CoveringInstance,
    NonStairCell,
    StairPolygon,
    coverage_certificate,
    decompose,
    pt,
)
from staircover import arrangement, decomposition
from staircover.decomposition import stair_decomposition
from _oracles import (
    Triangle, anchor, cell_matches_set_formula, cuts, cutters_reference, decompose_reference,
    non_stair_area_reference, non_stair_contains, non_stair_witness_reference, stair_area,
)
from conftest import cells_by_index, diag_lattice, frame_dtypes, grid_lattice
from test_arrangement import DEN, SHRINK, _generic, generic_families
from staircover.fileio import instance_to_json, parse_instance
from staircover.lattice import lattice_instance, perturb_instance


def corner_index(inst, x, y):
    return inst.corners.index(pt(x, y))


class TestInstanceValidation:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            CoveringInstance.of(1, 1, [(0, 0), (0, 0)])

    def test_rejects_bad_fold_and_window(self):
        for k, l, corners, message in [
            (0, 1, [(0, 0)], "fold must be a positive integer, got 0"),
            # the window is checked before a square Rect of it is built
            (1, 0, [(0, 0)], "window side must be positive"),
            (1, -1, [(0, 0)], "window side must be positive"),
            (1, 1, [], "instance needs at least one translate"),
        ]:
            with pytest.raises(ValueError) as err:
                CoveringInstance.of(k, l, corners)
            assert str(err.value) == message

    @pytest.mark.parametrize("den", [0, -2, True, Fraction(2)])
    def test_rejects_a_denominator_that_is_not_a_positive_int(self, den):
        with pytest.raises(ValueError) as err:
            CoveringInstance(1, Fraction(1), den, ((1, 0),))
        assert str(err.value) == f"denominator must be a positive integer, got {den!r}"

    @pytest.mark.parametrize("den, points, least", [
        (4, ((2, 0),), (2, ((1, 0),))),  # 1/2 as 2/4
        (2, ((0, 0), (1, 0)), (2, ((0, 0), (1, 0)))),  # already least
        (6, ((-3, 0), (3, 6)), (2, ((-1, 0), (1, 2)))),
        (5, ((0, 0),), (1, ((0, 0),))),  # 0 as 0/5
        # the gcd folds corner by corner, and stops at 1
        (7, ((1, 3), (0, 14), (21, 7)), (7, ((1, 3), (0, 14), (21, 7)))),  # no common factor
        # a factor 6 that only the last coordinate breaks: to 1, or to 3
        (12, ((6, 0), (0, 6), (6, 6), (0, 5)), (12, ((6, 0), (0, 6), (6, 6), (0, 5)))),
        (12, ((6, 0), (0, 6), (6, 6), (3, 0)), (4, ((2, 0), (0, 2), (2, 2), (1, 0)))),
        (30, ((6, 12), (-18, 0), (0, 24)), (5, ((1, 2), (-3, 0), (0, 4)))),  # every one shares 6
    ])
    def test_reduces_to_the_least_denominator(self, den, points, least):
        inst = CoveringInstance(1, Fraction(1), den, points)
        assert (inst.den, inst.points) == least
        assert inst == CoveringInstance(1, Fraction(1), *least)
        assert hash(inst) == hash(CoveringInstance(1, Fraction(1), *least))

    def test_every_builder_gives_the_least_denominator(self):
        half = CoveringInstance(1, Fraction(1), 6, ((3, -2), (0, 0)))
        assert (half.den, half.corners) == (6, (pt("1/2", "-1/3"), pt(0, 0)))
        assert CoveringInstance.of(1, 1, [("2/4", "-2/6"), (0, "0/5")]) == half
        parsed, _ = parse_instance({"k": 1, "l": "1", "translates": [["2/4", "-2/6"], [0, "0/5"]]})
        assert parsed == half
        doubled, _ = parse_instance({
            "k": 1, "l": "1", "triangle": [["0", "0"], ["2", "0"], ["0", "2"]],
            "translates": [["1", "-2/3"], ["0", "0"]],
        })
        assert doubled == half
        inst = lattice_instance(grid_lattice(3), Fraction(5, 3), 1)
        moved = perturb_instance(inst, "1/64", seed=5)
        assert moved.size == inst.size
        for built in (inst, moved):
            assert built.den == lcm(*(v.denominator for p in built.corners for v in (p.x, p.y)))

    @given(st.lists(st.tuples(*2 * [st.fractions(-3, 3, max_denominator=40)]),
                    min_size=1, max_size=6, unique=True),
           st.integers(1, 3), st.fractions(Fraction(1, 8), 3), st.integers(1, 60))
    def test_a_common_factor_leaves_the_instance_unchanged(self, corners, k, l, m):
        den = lcm(*(v.denominator for c in corners for v in c))
        points = tuple((int(x * den), int(y * den)) for x, y in corners)
        inst = CoveringInstance(k, l, den, points)
        scaled = CoveringInstance(k, l, m * den, tuple((m * x, m * y) for x, y in points))
        assert scaled == inst == CoveringInstance.of(k, l, corners)
        assert hash(scaled) == hash(inst)
        assert scaled.den == inst.den == den
        assert scaled.corners == inst.corners == tuple(pt(x, y) for x, y in corners)

    def test_builds_its_frame_on_first_read(self, monkeypatch):
        inst = lattice_instance(grid_lattice(3), Fraction(5, 3), 1)
        parsed, _ = parse_instance(instance_to_json(inst))
        assert "frame" not in vars(inst) and "frame" not in vars(parsed)
        cert = coverage_certificate(inst)
        frame = vars(inst)["frame"]
        monkeypatch.setattr(arrangement.Frame, "of_ints", None)  # no second build
        assert coverage_certificate(inst) == cert and inst.frame is frame

    @pytest.mark.parametrize("k", [True, False, "1", Fraction(1)])
    def test_rejects_fold_that_is_not_an_int(self, k):
        # a bool fold would be written as "k": true, which no parser reads back
        with pytest.raises(ValueError, match=re.escape(f"positive integer, got {k!r}")):
            CoveringInstance.of(k, 1, [(0, 0)])


def cutter_set(inst, i) -> tuple[int, ...]:
    """Indices j whose triangle cuts triangle i, by the per-row rule."""
    cut, _, _ = cutters_reference(inst.frame, i)
    return tuple(np.flatnonzero(cut).tolist())


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


class TestStairCell:
    def test_quarter_cells(self, quarters):
        expect = {
            (0, 0): StairPolygon.of((0, "1/2"), ("1/2", 0)),
            (0, Fraction(1, 2)): StairPolygon.of((0, "1/2"), (1, "1/2")),
            (Fraction(1, 2), 0): StairPolygon.of(("1/2", 1), ("1/2", 0)),
            (Fraction(1, 2), Fraction(1, 2)): StairPolygon.of(("1/2", 1), (1, "1/2")),
        }
        cells = cells_by_index(quarters)
        for i, corner in enumerate(quarters.corners):
            assert cells[i] == expect[(corner.x, corner.y)]

    def test_cells_match_set_formula(self, quarters):
        cells = cells_by_index(quarters)
        for i in range(quarters.size):
            assert cell_matches_set_formula(quarters, i, cells.get(i))

    def test_single_translate_keeps_hypotenuse(self):
        inst = CoveringInstance.of(1, 1, [(0, 0)])
        cell = cells_by_index(inst)[0]
        assert isinstance(cell, NonStairCell)
        assert Fraction(cell.diag, cell.scale) == 1
        assert non_stair_contains(cell, pt("1/2", "1/2"))  # on the hypotenuse, closed
        assert not non_stair_contains(cell, pt("3/4", "1/2"))
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

    @pytest.mark.parametrize("make", [
        lambda: _holed_generic(),
        lambda: CoveringInstance.of(3, 1, [(0, 0), ("-1/8", 0), (0, "-1/8")]),
    ], ids=["holed-generic", "fewer-cutters-than-fold"])
    def test_non_stair_cells_make_no_fraction(self, make):
        inst = make()
        inst.frame  # the window's Fraction edges belong to the instance's frame
        profile = cProfile.Profile()
        profile.enable()
        result = decompose(inst)
        profile.disable()
        made = sum(entry.callcount for entry in profile.getstats()
                   if entry.code is Fraction.__new__.__code__)
        assert result.non_stair and made == 0, made

    def test_empty_when_outside_window(self):
        inst = CoveringInstance.of(1, 1, [(0, 0), (5, 5)])
        assert decompose(inst).empty_indices == (1,)

    def test_degenerate_single_point_cell(self):
        # the translate reaches the window only at its closed corner point
        inst = CoveringInstance.of(1, 1, [(-1, 0)])
        cell = cells_by_index(inst)[0]
        assert isinstance(cell, NonStairCell)
        assert non_stair_contains(cell, pt(0, 0)) and cell.area() == 0
        assert cell.diagonal_witness() == pt(0, 0)
        assert not non_stair_contains(cell, pt(0, "1/8"))
        # a second translate swallowing the corner empties the cell entirely
        crowded = CoveringInstance.of(1, 1, [(-1, 0), (0, 0)])
        assert decompose(crowded).empty_indices == (0,)

    def test_empty_cell_in_crowded_corner(self):
        # the late corner translate is completely swallowed by earlier ones
        inst = lattice_instance(diag_lattice(1), 1, 1)
        result = decompose(inst)
        assert result.empty_indices  # some off-window translates contribute nothing
        for i in result.empty_indices:
            assert cell_matches_set_formula(inst, i, None)


@st.composite
def non_stair_cells(draw):
    """Contiguous columns on a common bottom, tops non-increasing and equal
    ones kept, and a hypotenuse anywhere from under the lower-left corner
    to over every column: some columns wholly under it, some wholly over."""
    scale = draw(st.integers(1, 6))
    x0, y0 = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    heights = draw(st.lists(st.integers(1, 10), min_size=len(widths), max_size=len(widths)))
    xs = tuple(accumulate([x0, *widths]))
    ys = (*(y0 + h for h in sorted(heights, reverse=True)), y0)
    diag = x0 + y0 + draw(st.integers(-4, sum(widths) + max(heights) + 4))
    return NonStairCell(xs, ys, diag, scale)


class TestNonStairCell:
    """The int area and hypotenuse witness equal the column-by-column
    `Fraction` formulas of the reference."""

    @given(non_stair_cells())
    @example(NonStairCell((0, 1), (1, 0), 0, 1))  # one point: the closed corner
    @example(NonStairCell((0, 2, 3), (5, 5, 0), 4, 3))  # equal tops, unmerged
    @example(NonStairCell((0, 1, 2), (1, 1, 0), 2, 1))  # wholly under: a stair
    @example(NonStairCell((-2, 1, 3, 5), (6, 2, 1, 0), 2, 2))  # the last wholly over
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_fraction_formulas(self, cell):
        assert cell.area() == non_stair_area_reference(cell)
        try:
            expected = non_stair_witness_reference(cell)
        except ValueError:
            with pytest.raises(ValueError, match="no point on the hypotenuse"):
                cell.diagonal_witness()
        else:
            assert cell.diagonal_witness() == expected
            assert non_stair_contains(cell, expected)


class TestDecompose:
    def test_quarters_partition_window(self, quarters):
        result = decompose(quarters)
        assert result.is_stair_decomposition
        assert len(result.cells) == 4
        assert sum(stair_area(c) for _, c in result.cells) == 1  # k * l^2

    def test_anchor_matches_corner_inside_window(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        result = decompose(inst)
        for i, cell in result.cells:
            corner = inst.corners[i]
            if 0 <= corner.x < 1 and 0 <= corner.y < 1:
                assert anchor(cell) == corner

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
            cells = dict(result.cells)
            for i in range(inst.size):
                assert cell_matches_set_formula(inst, i, cells.get(i))

    def test_total_cell_area_is_k_window_area(self):
        for k, lat in ((1, diag_lattice(1)), (2, diag_lattice(2)), (3, grid_lattice(3))):
            inst = lattice_instance(lat, 1, k)
            result = decompose(inst)
            assert sum(stair_area(c) for _, c in result.cells) == k

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
        inst = CoveringInstance.of(k, max(window.x1, window.y1), tuple(corners))
        cells = cells_by_index(inst)
        for i in range(inst.size):
            assert cell_matches_set_formula(inst, i, cells.get(i))


def _square_instance(family) -> CoveringInstance:
    """The drawn family on [0, l)^2, the least square window holding the
    drawn window (and so the hole of a holed draw)."""
    k, corners, window, _ = family
    return CoveringInstance.of(k, max(window.x1, window.y1), tuple(corners))


@st.composite
def small_denominator_instances(draw):
    """k <= 3 and 1..24 distinct corners on a 1/q grid over [-1, l)^2, so
    that corners sit left of and below the window and many cells are not
    stair polygons."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(1, 3)
    q = rng.choice((2, 3, 4, 5))
    l = Fraction(rng.randint(1, 2 * q), q)
    grid = [Fraction(n, q) for n in range(-q, int(l * q))]
    corners = {(rng.choice(grid), rng.choice(grid)) for _ in range(rng.randint(1, 24))}
    return CoveringInstance.of(k, l, sorted(corners))


def _parts(result):
    return result.cells, result.non_stair, result.empty_indices


def _tied_instance(rng, n: int, k: int) -> CoveringInstance:
    """n distinct corners on the 1/8 grid over [-1, l]^2, l being 1 or 2:
    coarse enough that the sums (cs), the x's (cx) and the window edges 0
    and l tie often."""
    l = rng.choice((1, 2))
    grid = [Fraction(v, 8) for v in range(-8, 8 * l + 1)]
    return CoveringInstance.of(k, l, rng.sample([(x, y) for x in grid for y in grid], n))


def _apexes_by_rule(frame) -> list:
    """The sorted apexes of the cutters of each triangle, one row each."""
    rows = []
    for i in range(len(frame.cx)):
        cut, mx, my = cutters_reference(frame, i)
        rows.append(sorted(zip(mx[cut].tolist(), my[cut].tolist())))
    return rows


def _apexes_by_blocks(frame, rows_per_block: int) -> list:
    """The same from `decompose`'s blocks, checking where each starts."""
    blocks = list(decomposition._apex_blocks(frame))
    assert [start for start, _ in blocks] == list(range(0, len(frame.cx), rows_per_block))
    return [apexes for _, block in blocks for apexes in block]


class TestBlocksMatchThePerRowRule:
    """`decompose` finds cutters a block of rows at a time; each row must
    be the per-row rule's, on int64 and bignum frames, with N on both sides
    of a block's edge."""

    @given(st.randoms(use_true_random=False), st.integers(-6, 6), st.booleans())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_one_and_two_blocks_at_the_real_size(self, rng, offset, bignum):
        # max(1, _BLOCK_PAIRS // n) rows per block: one block up to the
        # square root of _BLOCK_PAIRS, two just above it
        edge = isqrt(decomposition._BLOCK_PAIRS)
        n = edge + offset
        with pytest.MonkeyPatch.context() as m:
            if bignum:
                m.setattr(arrangement, "_INT64_LIMIT", 1)
            frame = _tied_instance(rng, n, 1).frame
        assert frame.cx.dtype == np.dtype(object if bignum else np.int64)
        rows = max(1, decomposition._BLOCK_PAIRS // n)
        assert -(-n // rows) == (1 if n <= edge else 2)
        assert _apexes_by_blocks(frame, rows) == _apexes_by_rule(frame)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_small_blocks_match_the_fraction_reference(self, rng, bignum):
        n = rng.randint(1, 16)
        rows = rng.randint(1, n + 1)  # one block when rows >= n
        with pytest.MonkeyPatch.context() as m:
            m.setattr(decomposition, "_BLOCK_PAIRS", rows * n)
            if bignum:
                m.setattr(arrangement, "_INT64_LIMIT", 1)
            inst = _tied_instance(rng, n, rng.randint(1, 3))
            assert _apexes_by_blocks(inst.frame, rows) == _apexes_by_rule(inst.frame)
            assert _parts(decompose(inst)) == _parts(decompose_reference(inst))

    def test_a_block_holds_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_BLOCK_PAIRS", 1)
        inst = lattice_instance(diag_lattice(2), 1, 2)
        assert _apexes_by_blocks(inst.frame, 1) == _apexes_by_rule(inst.frame)
        assert _parts(decompose(inst)) == _parts(decompose_reference(inst))


class TestMatchesFractionReference:
    @given(generic_families())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_generic_coverings_and_holes(self, family):
        inst = _square_instance(family)
        assert _parts(decompose(inst)) == _parts(decompose_reference(inst))

    @given(small_denominator_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_small_denominators_with_negative_corners(self, inst):
        assert _parts(decompose(inst)) == _parts(decompose_reference(inst))

    @pytest.mark.parametrize("lat, l, k", [
        (diag_lattice(1), 3, 1),
        (diag_lattice(2), Fraction(3, 2), 2),
        (grid_lattice(3), 2, 3),
    ])
    def test_lattice_families(self, lat, l, k):
        inst = lattice_instance(lat, l, k)
        assert _parts(decompose(inst)) == _parts(decompose_reference(inst))

    def test_cutter_set_matches_triangle_pairs(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        tris = [Triangle(c) for c in inst.corners]
        for i, t in enumerate(tris):
            expected = tuple(j for j, u in enumerate(tris) if cuts(u, t))
            assert cutter_set(inst, i) == expected


def _holed_generic() -> CoveringInstance:
    """The diagonal 2-fold family, shrunk onto the 1/DEN grid as in
    `generic_families`, with all but one of the triangles through a generic
    point dropped, on [0, 1)^2."""
    rng = random.Random(6)
    base = lattice_instance(diag_lattice(2), 1 / (1 - SHRINK), 2).corners
    corners = sorted(
        {pt(_generic((1 - SHRINK) * c.x, rng), _generic((1 - SHRINK) * c.y, rng)) for c in base},
        key=lambda c: (c.x, c.y),
    )
    hole = pt(Fraction(4001, DEN), Fraction(5003, DEN))
    dropped = [c for c in corners if Triangle(c).contains(hole)][1:]
    return CoveringInstance.of(2, Fraction(1), tuple(c for c in corners if c not in dropped))


def _bignum_cases():
    for name, lat, k in [
        ("diag1", diag_lattice(1), 1),
        ("diag2", diag_lattice(2), 2),
        ("diag3", diag_lattice(3), 3),
        ("grid2", grid_lattice(2), 1),
        ("grid3", grid_lattice(3), 3),
    ]:
        yield pytest.param(lattice_instance(lat, 1, k), id=name)
    yield pytest.param(_holed_generic(), id="generic-holed")


class TestBignumPath:
    def test_holed_case_has_non_stair_cells(self):
        assert decompose(_holed_generic()).non_stair

    @pytest.mark.parametrize("inst", list(_bignum_cases()))
    def test_object_dtype_matches_int64(self, monkeypatch, inst):
        assert frame_dtypes(inst) == ({np.dtype(np.int64)}, {np.dtype(np.int64)})
        expected = decompose(inst), coverage_certificate(inst)
        monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        # the instance builds its frame once, so it is built again here
        big = CoveringInstance.of(inst.k, inst.window, inst.corners)
        assert big.frame.cx.dtype == object and big.frame.cs.dtype == object
        assert frame_dtypes(big) == ({np.dtype(object)}, {np.dtype(object)})
        assert (decompose(big), coverage_certificate(big)) == expected


class TestStairDecomposition:
    """The decomposition a coverage proof asks for stops at the first
    non-stair cell, and is `decompose` when there is none."""

    def test_stops_at_the_first_non_stair_cell(self, monkeypatch):
        inst = _holed_generic()
        first = decompose(inst).non_stair[0][0]
        real = decomposition._cell
        made = []
        monkeypatch.setattr(
            decomposition, "_cell",
            lambda frame, k, i, apexes: made.append(i) or real(frame, k, i, apexes),
        )
        assert stair_decomposition(inst) is None
        assert made == list(range(first + 1))

    def test_equals_decompose_on_coverings(self, corpus):
        for inst in corpus:
            assert stair_decomposition(inst) == decompose(inst)


class TestCuttingTransitivity:
    def test_on_fixture_triples(self):
        inst = lattice_instance(diag_lattice(2), 1, 2)
        tris = [Triangle(c) for c in inst.corners]
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
