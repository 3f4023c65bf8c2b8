"""The line-minimum depth kernel against the N-wide broadcast reference, the
bignum (object-dtype) path against the int64 one, and the gap lemma the
kernel rests on against the oracle."""

from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircover import Rect, pt
from staircover import arrangement
from staircover.arrangement import min_depth
from staircover.lattice import Lattice, _multiplicity_window, lattice_instance
from conftest import diag_lattice, grid_lattice, rect_of
from _oracles import (
    Triangle, count_tables_reference, depth_at, full_sweep, min_depth_reference, rect_contains,
    sample_depths, vertex_xs,
)

DEN = 9973  # prime: generic coordinates share no structure with the lattices
SHRINK = Fraction(1, 8)


def _floored(corners, window, d):
    """`min_depth` with a proof of depth >= d asked for on every scan."""
    asked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrangement, "_CERTIFY_SLOTS_PER_TRANSLATE", -1)
        frame = arrangement.Frame.of(corners, window)
        got = frame.min_depth(certify=lambda: asked.append(d) or d)
    assert asked == [d]
    return got


def _every_floor(corners, window, expected):
    """Every valid floor d = 0..min gives the exhaustive (depth, witness)."""
    for d in range(expected[0] + 1):
        assert _floored(corners, window, d) == expected


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


@st.composite
def coarse_families(draw):
    """(corners, window) with every value on one grid of step 1/d, d <= 6,
    and up to 7 corners, most made to tie with the window or another corner:
    a corner on a window edge, a hypotenuse through y = wy0 or y = wy1 at a
    grid x of the window (a sweep line meets it exactly there), a repeated
    cy or a repeated cs; or a triangle holding the whole window, so that
    some depths are positive."""
    rng = draw(st.randoms(use_true_random=False))
    d = rng.randint(1, 6)

    def grid(lo, hi):  # a value of the grid in [lo, hi]
        return Fraction(rng.randint(int(lo * d), int(hi * d)), d)

    x0, y0 = grid(-1, 1), grid(-1, 1)
    step = Fraction(1, d)
    side = max(step, Fraction(d // 2, d))  # small windows, so triangles can hold them
    x1, y1 = x0 + grid(step, side), y0 + grid(step, side)
    slack = 1 - (x1 - x0) - (y1 - y0)  # room left when a triangle holds the window
    corners = []
    for _ in range(rng.randint(0, 7)):
        cx, cy = grid(x0 - 1, x1), grid(y0 - 1, y1)
        kind = rng.choice(["free", "edge", "wy0", "wy1", "cy", "cs", "holds", "holds"])
        if kind == "edge":
            cx, cy = rng.choice([(rng.choice([x0, x1]), cy), (cx, rng.choice([y0, y1]))])
        elif kind in ("wy0", "wy1"):
            at = grid(x0, x1)
            cx = at - grid(0, 1)
            cy = at + (y0 if kind == "wy0" else y1) - 1 - cx
        elif corners and kind == "cy":
            cy = rng.choice(corners).y
        elif corners and kind == "cs":
            other = rng.choice(corners)
            cy = other.x + other.y - cx
        elif kind == "holds" and slack >= 0:
            a = grid(0, slack)
            cx, cy = x0 - a, y0 - grid(0, slack - a)
        corners.append(pt(cx, cy))
    return list(dict.fromkeys(corners)), Rect(x0, x1, y0, y1)


class TestDepthKernelMatchesReference:
    @given(generic_families())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_generic_coverings_and_holes(self, family):
        k, corners, window, hole = family
        assert len(corners) <= 40
        got = min_depth(corners, window)
        assert got == min_depth_reference(corners, window)
        _every_floor(corners, window, got)
        depth, witness = got
        assert rect_contains(window, witness) and depth_at(corners, witness) == depth
        assert depth < k if hole is not None else depth >= k

    @given(lattice_windows())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lattice_multiplicity_windows(self, case):
        corners, window = case
        got = min_depth(corners, window)
        assert got == min_depth_reference(corners, window)
        _every_floor(corners, window, got)

    def test_right_vertex_on_window_edge(self):
        # the first slab passes through the right vertex (1, 0) of T(0, 0),
        # which the triangle covers at y = 0 alone
        corners, window = [pt(0, 0)], rect_of(1, 2, 0, 1)
        got = min_depth(corners, window)
        assert got == min_depth_reference(corners, window)
        assert got[0] == 0 and depth_at(corners, got[1]) == 0

    @pytest.mark.parametrize("window", [
        rect_of(0, 1, 0, 1),
        rect_of("1/3", "5/2", "-1/7", "2/9"),
    ])
    @pytest.mark.parametrize("floor", [None, 0])
    def test_no_corners(self, window, floor):
        got = min_depth([], window) if floor is None else _floored([], window, floor)
        assert got == min_depth_reference([], window)
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
    return corners, rect_of(0, 1, 0, 1)


def _dtype(corners, window):
    frame = arrangement.Frame.of(corners, window)
    return arrangement._sweep(frame)[2].dtype


class TestBignumPath:
    @pytest.mark.parametrize("corners, window", list(_lattice_cases()))
    @pytest.mark.parametrize("proof", ["none", "trivial", "positive"])
    def test_object_dtype_matches_int64(self, monkeypatch, corners, window, proof):
        # no proof, the floor d = 0, or each floor d = 1..min
        assert _dtype(corners, window) == "int64"
        expected = min_depth_reference(corners, window)
        floors = {"none": [], "trivial": [0], "positive": range(1, expected[0] + 1)}[proof]
        assert proof == "none" or floors

        def check():
            assert min_depth(corners, window) == expected
            for d in floors:
                assert _floored(corners, window, d) == expected

        check()
        monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        assert _dtype(corners, window) == object
        check()

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


class TestChunkSizes:
    """Blocks of sweep lines only batch the scan: the scan order, and so
    (depth, witness), do not depend on their size, with or without a floor,
    on int64 and bignum frames."""

    @pytest.mark.parametrize("corners, window", list(_lattice_cases()))
    @pytest.mark.parametrize("bignum", [False, True])
    def test_lattices(self, monkeypatch, corners, window, bignum):
        expected = min_depth_reference(corners, window)
        if bignum:
            monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        for chunk in (1, 5, 64, 4096):
            monkeypatch.setattr(arrangement, "_CHUNK", chunk)
            assert min_depth(corners, window) == expected
            assert _floored(corners, window, expected[0]) == expected

    @given(generic_families(), st.sampled_from([1, 5, 64, 4096]))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_generic_coverings_and_holes(self, family, chunk):
        _, corners, window, _ = family
        expected = min_depth(corners, window)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(arrangement, "_CHUNK", chunk)
            assert min_depth(corners, window) == expected
            _every_floor(corners, window, expected)


class TestEarlyStop:
    """The scan stops at the first line whose minimum is at most the floor,
    so a floor equal to that minimum stops it as early as a huge one."""

    def test_a_line_at_the_floor_stops_the_scan(self, monkeypatch):
        # a 2-fold covering: its first sweep line has minimum 4, and the
        # global minimum is 2; one line per block, a proof asked on every scan
        lattice = lattice_instance(Lattice.of(1, 0, "1/5", "1/5"), 2, 2).corners
        extra = [pt("-1/2", Fraction(j, 3)) for j in range(6)]
        frame = arrangement.Frame.of([*lattice, *extra], rect_of(0, 2, 0, 2))
        monkeypatch.setattr(arrangement, "_CHUNK", 1)
        monkeypatch.setattr(arrangement, "_CERTIFY_SLOTS_PER_TRANSLATE", -1)
        assert frame.min_depth()[0] == 2
        first_line = frame.min_depth(certify=lambda: 10**9)
        assert first_line[0] == 4
        assert frame.min_depth(certify=lambda: 4) == first_line


class TestLineMinima:
    """The scan takes each sweep line's minimum from the gaps just above
    wy0 and above its hypotenuse crossings, then reads the witness off the
    first line at the least minimum."""

    @given(coarse_families())
    @example(([], rect_of(0, 1, 0, 1)))
    @example(([pt(0, 0)], rect_of(0, 1, 0, 1)))
    @example(([pt("-1/2", 0), pt(0, "-1/2")], rect_of(0, 1, 0, "1/2")))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_coarse_ties(self, case):
        corners, window = case
        expected = min_depth_reference(corners, window)
        with pytest.MonkeyPatch.context() as m:
            for limit in (arrangement._INT64_LIMIT, 1):
                m.setattr(arrangement, "_INT64_LIMIT", limit)
                for chunk in (1, 5, 64, 4096):
                    m.setattr(arrangement, "_CHUNK", chunk)
                    assert min_depth(corners, window) == expected
                    _every_floor(corners, window, expected)

    @staticmethod
    def check_gap_minima(corners, window):
        # on every line, by the N-wide oracle: the least depth at the midpoints
        # of the gaps just above wy0 and above the hypotenuse crossings in
        # [wy0, wy1) is the least depth at any of the line's samples
        frame = arrangement.Frame.of(corners, window)
        sweep = y_base, s_base, ts = full_sweep(frame)
        wy0, wy1 = frame.bounds[2:].tolist()
        ys, valid = arrangement._samples(frame, sweep, ts)
        every = np.where(valid, sample_depths(corners, frame.scale, ts, ys), np.inf).min(1)
        for t, least in zip(ts.tolist(), every.tolist()):
            crossings = sorted({*y_base.tolist(), *(s - t for s in s_base.tolist())})
            starts = [wy0, *(s - t for s in s_base.tolist() if wy0 <= s - t < wy1)]
            mids = [(a + min(c for c in crossings if c > a)) // 2 for a in starts]
            gaps = sample_depths(corners, frame.scale, np.array([t], dtype=ts.dtype),
                                 np.array([mids], dtype=ts.dtype))
            assert gaps.min() == least

    @pytest.mark.parametrize("corners, window", list(_lattice_cases()))
    def test_gap_minima_on_lattices(self, corners, window):
        self.check_gap_minima(corners, window)

    @given(coarse_families())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_gap_minima_on_coarse_ties(self, case):
        self.check_gap_minima(*case)


class TestSweepLines:
    """The scan sweeps x = wx0 and the midpoint of each pair of consecutive
    vertex x's only. The depth is upper-semicontinuous, so over the lines
    of the full sweep (every vertex x and every midpoint) the first line at
    the global minimum is x = wx0 or a midpoint, and the scan keeps it."""

    @given(coarse_families(), st.booleans())
    @example(([], rect_of(0, 1, 0, 1)), False)
    @example(([pt("-1/2", 0), pt(0, "-1/2")], rect_of(0, 1, 0, "1/2")), True)  # 0 at x = 1/4, 1/2
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_first_line_at_the_minimum_is_wx0_or_a_midpoint(self, case, bignum):
        corners, window = case
        with pytest.MonkeyPatch.context() as m:
            if bignum:
                m.setattr(arrangement, "_INT64_LIMIT", 1)
            frame = arrangement.Frame.of(corners, window)
        assert frame.cx.dtype == np.dtype(object if bignum else np.int64)
        sweep = full_sweep(frame)
        ts = sweep[2]
        ys, valid = arrangement._samples(frame, sweep, ts)
        depths = sample_depths(corners, frame.scale, ts, ys)
        least = np.where(valid, depths, np.iinfo(np.int64).max).min(1)
        first = int(np.argmin(least))
        assert ts[first] not in vertex_xs(frame)[1:]
        assert ts[first] in arrangement._sweep(frame)[2]

    @pytest.mark.parametrize("corners, window", [*_lattice_cases(), ([], rect_of(0, 1, 0, 1))])
    def test_one_line_per_vertex_x(self, corners, window):
        # x = wx0 and a midpoint per slab: as many lines as vertex x's in
        # [wx0, wx1], against 2 * that - 2 with the vertex lines
        frame = arrangement.Frame.of(corners, window)
        vx = vertex_xs(frame)
        ts = arrangement._sweep(frame)[2]
        assert len(vx) >= 2 and len(ts) == len(vx)
        assert ts.tolist() == [vx[0], *((vx[:-1] + vx[1:]) // 2)]

    def test_crossings_above_the_cap_are_refused(self, monkeypatch):
        corners, window = next(iter(_lattice_cases())).values
        frame = arrangement.Frame.of(corners, window)
        y_base, s_base, _ = full_sweep(frame)
        crossings = len(y_base) * len(s_base)
        monkeypatch.setattr(arrangement, "_MAX_CROSSINGS", crossings)
        assert frame.min_depth() == min_depth_reference(corners, window)
        monkeypatch.setattr(arrangement, "_MAX_CROSSINGS", crossings - 1)
        with pytest.raises(ValueError, match=(
            f"^translates: the depth scan would make {crossings:,} crossings of "
            f"{len(s_base):,} hypotenuses and {len(y_base):,} horizontal lines, "
            f"more than its cap of {crossings - 1:,}$"
        )):
            frame.min_depth(certify=pytest.fail)


class TestCountTables:
    """`_count_tables` counts the corners by one `np.bincount` over the
    flat (row, column) index: its tables are those of `np.add.at` into
    int32 counts, with the same int32 cumsums, on int64 and bignum frames,
    empty ones too."""

    @staticmethod
    def _check(frame):
        y_base, s_base, _ = arrangement._sweep(frame)
        got = arrangement._count_tables(frame, y_base, s_base)
        want = count_tables_reference(frame, y_base, s_base)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.dtype for a in got[2:]] == [np.dtype(np.int32)] * 2
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @pytest.mark.parametrize("corners, window", [*_lattice_cases(), ([], rect_of(0, 1, 0, 1))])
    @pytest.mark.parametrize("bignum", [False, True])
    def test_lattices(self, monkeypatch, corners, window, bignum):
        if bignum:
            monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        frame = arrangement.Frame.of(corners, window)
        assert frame.cx.dtype == np.dtype(object if bignum else np.int64)
        self._check(frame)

    def test_sliver_beyond_int64(self):
        frame = arrangement.Frame.of(*_sliver())
        assert frame.cx.dtype == object
        self._check(frame)

    @given(generic_families(), st.booleans())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_generic_coverings_and_holes(self, family, bignum):
        _, corners, window, _ = family
        with pytest.MonkeyPatch.context() as m:
            if bignum:
                m.setattr(arrangement, "_INT64_LIMIT", 1)
            self._check(arrangement.Frame.of(corners, window))


class TestDistinct:
    """`_distinct`, a sort and a neighbour mask, gives `np.unique`'s arrays,
    and the sweep setup built on it is the same on int64 and bignum frames."""

    @given(st.lists(st.integers(-40, 40), max_size=50), st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_np_unique(self, values, bignum):
        a = np.asarray(values, dtype=object if bignum else np.int64)
        got = arrangement._distinct(a)
        want, inverse = np.unique(a, return_inverse=True)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert np.searchsorted(got, a).tolist() == inverse.tolist()

    @pytest.mark.parametrize("lat, l", [(diag_lattice(2), "3/2"), (grid_lattice(3), 1)])
    def test_sweep_and_tables_agree_across_dtypes(self, monkeypatch, lat, l):
        inst = lattice_instance(lat, l, 1)
        window = inst.window_rect()
        frames = [arrangement.Frame.of(inst.corners, window)]
        monkeypatch.setattr(arrangement, "_INT64_LIMIT", 1)
        frames.append(arrangement.Frame.of(inst.corners, window))
        assert [f.cx.dtype for f in frames] == [np.dtype(np.int64), np.dtype(object)]

        def flat(frame):
            sweep = y_base, s_base, _ = arrangement._sweep(frame)
            return ([a.tolist() for a in sweep],
                    [a.tolist() for a in arrangement._count_tables(frame, y_base, s_base)])

        int64, bignum = map(flat, frames)
        assert int64 == bignum
        (y_base, s_base, _), (_, _, cy_table, cs_table) = int64
        assert y_base == np.unique(np.concatenate([frames[0].cy, frames[0].bounds[2:]])).tolist()
        assert s_base == np.unique(frames[0].cs).tolist()
        # the last row counts every corner at or below each base value
        for values, base, table in ((frames[0].cy, y_base, cy_table),
                                    (frames[0].cs, s_base, cs_table)):
            assert table[-1] == [0, *(int((values <= b).sum()) for b in base)]
