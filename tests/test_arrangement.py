"""The prefix-count depth kernel against the N-wide broadcast reference, and
the bignum (object-dtype) path against the int64 one."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircover import Rect, Triangle, pt
from staircover import arrangement
from staircover.arrangement import min_depth
from staircover.lattice import Lattice, _multiplicity_window, lattice_instance
from conftest import diag_lattice, grid_lattice
from _oracles import depth_at, min_depth_reference

DEN = 9973  # prime: generic coordinates share no structure with the lattices
SHRINK = Fraction(1, 8)


def _generic(v: Fraction, rng) -> Fraction:
    """A point of the 1/DEN grid at most SHRINK/2 below v."""
    return Fraction(floor(v * DEN) - rng.randrange(int(DEN * SHRINK / 2)), DEN)


def _around(v: Fraction, side: Fraction, rng) -> tuple[Fraction, Fraction]:
    """Bounds a <= v < b of a generic interval inside [0, side)."""
    return (v * Fraction(rng.randrange(DEN), DEN),
            v + (side - v) * Fraction(rng.randrange(1, DEN + 1), DEN))


@st.composite
def generic_families(draw):
    """(k, corners, window, hole): k <= 3 and N <= 40 generic corners.

    The diagonal lattice covers the plane k-fold; scaled by 1 - s, with each
    corner moved down and left by at most s in total, it still does (if
    p - c lies in (1-s)T, then p - c - e lies in T for e <= 0, |e| <= s). A
    holed draw keeps only k - 1 of the triangles through a generic point,
    the hole. The window is [0, l)^2 or a generic sub-rectangle of it around
    the hole."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(1, 3)
    side = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4)))
    base = lattice_instance(diag_lattice(k), side / (1 - SHRINK), k).corners
    corners = list(
        {pt(_generic((1 - SHRINK) * c.x, rng), _generic((1 - SHRINK) * c.y, rng))
         for c in base}
    )
    hole = None
    if rng.random() < 0.5:
        hole = pt(Fraction(rng.randrange(1, DEN), DEN) * side,
                  Fraction(rng.randrange(1, DEN), DEN) * side)
        through = [c for c in corners if Triangle(c).contains(hole)]
        dropped = rng.sample(through, len(through) - (k - 1))
        corners = [c for c in corners if c not in dropped]
    window = Rect(Fraction(0), side, Fraction(0), side)
    if rng.random() < 0.5:
        pivot = hole or pt(Fraction(rng.randrange(DEN), DEN) * side,
                           Fraction(rng.randrange(DEN), DEN) * side)
        window = Rect(*_around(pivot.x, side, rng), *_around(pivot.y, side, rng))
    return k, corners, window, hole


@st.composite
def lattice_windows(draw):
    """(corners, window) of `_multiplicity_window` for a lattice (a, 0),
    (b, c) with small rational entries: the window is Rect(0, a + b, 0, c)."""
    rng = draw(st.randoms(use_true_random=False))
    a = Fraction(rng.randint(2, 12), rng.randint(6, 12))
    c = Fraction(rng.randint(2, 12), rng.randint(6, 12))
    b = Fraction(rng.randint(0, 11), 12) * a
    window, corners = _multiplicity_window(Lattice.of(a, 0, b, c))
    return corners, window


class TestDepthKernelMatchesReference:
    @given(generic_families(), st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_generic_coverings_and_holes(self, family, data):
        k, corners, window, hole = family
        assert len(corners) <= 40
        early = data.draw(st.sampled_from([None, *range(1, k + 2)]))
        got = min_depth(corners, window, early_below=early)
        assert got == min_depth_reference(corners, window, early_below=early)
        depth, witness = got
        assert window.contains(witness) and depth_at(corners, witness) == depth
        if early is None and hole is None:
            assert depth >= k
        if hole is not None and (early or k) <= k:
            assert depth < k

    @given(lattice_windows(), st.sampled_from([None, 1, 2, 3, 4]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lattice_multiplicity_windows(self, case, early):
        corners, window = case
        got = min_depth(corners, window, early_below=early)
        assert got == min_depth_reference(corners, window, early_below=early)

    def test_right_vertex_on_window_edge(self):
        # the first slab passes through the right vertex (1, 0) of T(0, 0),
        # which the triangle covers at y = 0 alone
        corners, window = [pt(0, 0)], Rect.of(1, 2, 0, 1)
        got = min_depth(corners, window)
        assert got == min_depth_reference(corners, window)
        assert got[0] == 0 and depth_at(corners, got[1]) == 0

    @pytest.mark.parametrize("window", [
        Rect.of(0, 1, 0, 1),
        Rect.of("1/3", "5/2", "-1/7", "2/9"),
    ])
    @pytest.mark.parametrize("early", [None, 1])
    def test_no_corners(self, window, early):
        got = min_depth([], window, early_below=early)
        assert got == min_depth_reference([], window, early_below=early)
        assert got[0] == 0


def _lattice_cases():
    for name, lat, k in [
        ("diag1", diag_lattice(1), 1),
        ("diag2", diag_lattice(2), 2),
        ("diag3", diag_lattice(3), 3),
        ("grid2", grid_lattice(2), 1),
        ("grid3", grid_lattice(3), 3),
    ]:
        inst = lattice_instance(lat, 1, k)
        yield pytest.param(list(inst.corners), inst.window_rect(), id=f"{name}-square")
        window, corners = _multiplicity_window(lat)
        yield pytest.param(corners, window, id=f"{name}-fundamental")


def _sliver():
    eps = Fraction(1, 10**19)
    corners = [pt(0, 0), pt(0, Fraction(1, 2) + eps), pt("1/2", 0), pt("1/2", "1/2")]
    return corners, Rect.of(0, 1, 0, 1)


def _dtype(corners, window):
    frame = arrangement._frame(corners, window)
    ts, _, _ = next(arrangement._iter_chunks(frame, arrangement._sweep(frame)))
    return ts.dtype


class TestBignumPath:
    @pytest.mark.parametrize("corners, window", list(_lattice_cases()))
    @pytest.mark.parametrize("early", [None, 1, 4])
    def test_object_dtype_matches_int64(self, monkeypatch, corners, window, early):
        assert _dtype(corners, window) == "int64"
        expected = min_depth(corners, window, early_below=early)
        monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        assert _dtype(corners, window) == object
        assert min_depth(corners, window, early_below=early) == expected

    @pytest.mark.parametrize("limit", [None, 1])
    def test_sliver_beyond_int64(self, monkeypatch, limit):
        # the 1e-19 sliver needs bignums either way; check it against the
        # reference kernel, which runs on the same object-dtype samples
        if limit is not None:
            monkeypatch.setattr(arrangement, "_INT64_LIMIT", limit)
        corners, window = _sliver()
        assert _dtype(corners, window) == object
        got = min_depth(corners, window)
        assert got == min_depth_reference(corners, window)
        assert got[0] == 0
