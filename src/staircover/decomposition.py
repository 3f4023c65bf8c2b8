"""Decomposition of a finite k-fold covering instance into half-open cells.

Each triangle T_i gives a cell: the window-clipped part of T_i minus the
union, over all k-element subsets of the triangles cutting T_i, of their
common intersections. Inside T_i a point belongs to that union exactly when
it componentwise-dominates at least k of the cut apexes (the componentwise
maxima of corner pairs), so the cell is the part of T_i's quadrant under the
k-th dominance staircase of the apex multiset, clipped to the window.

For a genuine k-fold covering the hypotenuse of T_i is always swallowed by
the union, and the cell is a half-open stair polygon. For arbitrary input the
staircase may stick out over the hypotenuse; the cell is then returned as a
`NonStairCell` (the staircase region clipped by the closed half-plane
x + y <= hyp_sum) and flagged, rather than raising, so that candidate
non-coverings can still flow through the pipeline.

All of this runs in integers, on the `arrangement.Frame` that the instance
derives from its exact corners (built on its first read): corners,
hypotenuse offsets and the window scaled to int64 (or bignum `object`)
arrays. Both kinds of cell keep those ints as their breaks (and a non-stair
cell its hypotenuse offset), on the frame's scale.
Numpy blocks of cutter rows find the cutters and their apexes, and the
staircase is a sweep over the sorted apexes that keeps the k lowest y's
seen; one `decompose` costs O(N^2 + sum of m_i (log m_i + k)) time, m_i
being the number of cutters of T_i, and O(N + _BLOCK_PAIRS) memory beyond
its output.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .arrangement import Frame
from .geom import Point, Rect, StairPolygon, pt, scaled_point
from .rational import int_at_least, on_one_scale, rat

__all__ = [
    "CoveringInstance",
    "DecompositionResult",
    "NonStairCell",
    "decompose",
    "stair_decomposition",
]


@dataclass(frozen=True)
class CoveringInstance:
    """A fold k, a half-open square window [0, l)^2 and N distinct corners.

    The corners are exact: `points` holds, per corner, its x and its y
    times the positive int `den`, as ints. The constructor divides out
    any factor that `den` shares with every coordinate, so `den` is their
    least common denominator, and equality and hashing (by fold, window,
    `den` and `points`) are by value. `of` makes one from `Point`s or
    rationals. On first read the instance derives its `frame` (the corners
    and the window on the integer frame of `arrangement`, which the depth
    scan and `decompose` read) and its `corners` as `Point`s.
    """

    k: int
    window: Fraction
    den: int
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        """Check the fold, the window and `den`, reduce `den`, and refuse an
        empty or repeated corner list (the one check of distinct corners)."""
        int_at_least(self.k, 1, "fold must be a positive integer")
        if self.window <= 0:
            raise ValueError("window side must be positive")
        int_at_least(self.den, 1, "denominator must be a positive integer")
        den, points = self.den, tuple(self.points)
        if not points:
            raise ValueError("instance needs at least one translate")
        g = den
        for x, y in points:  # least-denominator rows reach 1 at once
            g = gcd(g, x, y)
            if g == 1:
                break
        if g > 1:
            den, points = den // g, tuple((x // g, y // g) for x, y in points)
        if len(set(points)) < len(points):
            counts = Counter(points)
            smallest = min(str(scaled_point(*p, den)) for p, n in counts.items() if n > 1)
            raise ValueError(f"corners must be pairwise distinct; repeated {smallest}")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "points", points)

    @classmethod
    def of(cls, k: int, window, corners) -> "CoveringInstance":
        """The instance of corners given as `Point`s or as (x, y) pairs of
        exact rationals in any form that `rat` reads."""
        side = rat(window)
        points = [c if isinstance(c, Point) else pt(*c) for c in corners]
        den, vs = on_one_scale([v for p in points for v in (p.x, p.y)])
        return cls(k, side, den, tuple(zip(vs[::2], vs[1::2])))

    @cached_property
    def frame(self) -> Frame:
        return Frame.of_ints(self.den, self.points, self.window_rect())

    @cached_property
    def corners(self) -> tuple[Point, ...]:
        return tuple(scaled_point(x, y, self.den) for x, y in self.points)

    @property
    def size(self) -> int:
        return len(self.points)

    def window_rect(self) -> Rect:
        zero = Fraction(0)
        return Rect(zero, self.window, zero, self.window)


@dataclass(frozen=True)
class NonStairCell:
    """Cell region whose staircase still pokes over its triangle's hypotenuse.

    Ints on the frame's `scale`, as in a `StairPolygon`: the column breaks
    `xs`, then in `ys` the column tops (non-increasing; equal ones are not
    merged, as the report lists every column) and the bottom, and the
    hypotenuse x + y = diag. The point set is the part of the half-open
    columns in the closed half-plane x + y <= diag. Only non-coverings
    produce these, always on their frame's scale, so equality is by the ints.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    diag: int
    scale: int

    def area(self) -> Fraction:
        xs, y0, h = self.xs, self.ys[-1], self.diag
        twice = 0  # twice the area, on the scale squared
        for a, b, top in zip(xs, xs[1:], self.ys):
            lo, hi = max(a, h - top), min(b, h - y0)  # the hypotenuse crosses [lo, hi)
            twice += 2 * (min(b, lo) - a) * (top - y0)
            if lo < hi:  # the trapezoid under the hypotenuse
                twice += (hi - lo) * (2 * (h - y0) - lo - hi)
        return Fraction(twice, 2 * self.scale * self.scale)

    def diagonal_witness(self) -> Point:
        """A point of the cell lying exactly on the closed hypotenuse."""
        xs, y0, h = self.xs, self.ys[-1], self.diag
        for a, b, top in zip(xs, xs[1:], self.ys):
            lo, hi = max(a, h - top), min(b, h - y0)
            if lo < hi:
                return scaled_point(lo + hi, 2 * h - lo - hi, 2 * self.scale)
        if xs[0] + y0 == h:  # one-point cell: only the closed corner touches the hypotenuse
            return scaled_point(xs[0], y0, self.scale)
        raise ValueError("cell has no point on the hypotenuse")


@dataclass(frozen=True)
class DecompositionResult:
    instance: CoveringInstance
    cells: tuple[tuple[int, StairPolygon], ...]
    non_stair: tuple[tuple[int, NonStairCell], ...] = field(default=())
    empty_indices: tuple[int, ...] = field(default=())

    @property
    def is_stair_decomposition(self) -> bool:
        return not self.non_stair

    def stair_cells(self) -> tuple[StairPolygon, ...]:
        return tuple(cell for _, cell in self.cells)


_BLOCK_PAIRS = 1 << 15  # most (row, corner) pairs per block; ~1.5 MB of int64 temporaries fit L2


def _apex_blocks(frame):
    """Per block of rows i: the first i, and per row the sorted apexes
    (componentwise maxima of corners i and j) of the triangles j cutting i.

    j cuts i when j comes later in the sum-then-x order (a strict order, by
    rank, as the corners are distinct) and the two closed triangles meet:
    the lowest point (mx, my) of the two quadrants' intersection lies under
    both hypotenuses, so under i's, as a later j has cs_j >= cs_i.
    """
    cx, cy, cs = frame.cx, frame.cy, frame.cs
    n = len(cx)
    rank = np.lexsort((cx, cs)).argsort()
    step = max(1, _BLOCK_PAIRS // n)
    for start in range(0, n, step):
        bx, by, bs, br = (v[start : start + step, None] for v in (cx, cy, cs, rank))
        mx, my = np.maximum(cx, bx), np.maximum(cy, by)
        hit = np.flatnonzero((rank > br) & (mx + my <= bs))  # row-major
        rows = hit // n
        ax, ay = mx.ravel()[hit], my.ravel()[hit]
        order = np.lexsort((ay, ax, rows))
        apexes = list(zip(ax[order].tolist(), ay[order].tolist()))
        ends = np.bincount(rows, minlength=len(bx)).cumsum().tolist()
        yield start, [apexes[a:b] for a, b in zip([0, *ends], ends)]


def _dominance_columns(apexes, k, x0, y0, hi, h):
    """Columns of the region below the k-th dominance staircase of the
    sorted *apexes* inside [x0, hi) x [y0, hi), up to the last column whose
    lower-left corner lies under the hypotenuse x + y = h.

    Returns contiguous (x_start, x_end, top) triples with non-increasing
    tops; the top of a column at x is the k-th smallest apex y among apexes
    with apex x <= x, or hi when there are fewer than k. Equal apexes count
    separately toward the threshold.
    """
    relevant = [a for a in apexes if a[0] < hi and a[1] < hi]
    lowest: list[int] = []  # the k smallest apex y's seen so far
    columns = []
    idx = 0
    x = x0
    while x < hi and x + y0 <= h:
        while idx < len(relevant) and relevant[idx][0] <= x:
            insort(lowest, relevant[idx][1])
            del lowest[k:]
            idx += 1
        top = lowest[-1] if len(lowest) == k else hi
        if top <= y0:
            break  # staircase is non-increasing; nothing further survives
        next_x = relevant[idx][0] if idx < len(relevant) else hi
        columns.append((x, next_x, top))
        x = next_x
    return columns


def _cell(frame, k: int, i: int, apexes):
    """Cell of triangle i, from the sorted apexes of its cutters: a
    StairPolygon on the frame's scale, a NonStairCell, or None if empty."""
    scale = frame.scale
    hi = int(frame.bounds[1])  # the window is [0, hi)^2
    cx, cy, h = int(frame.cx[i]), int(frame.cy[i]), int(frame.cs[i])
    x0, y0 = max(cx, 0), max(cy, 0)
    if x0 >= hi or y0 >= hi or x0 + y0 > h:
        return None
    columns = _dominance_columns(apexes, k, x0, y0, hi, h)
    if not columns:
        return None
    if any(b + top > h for _, b, top in columns):
        xs = (x0, *(b for _, b, _ in columns))
        return NonStairCell(xs, (*(top for *_, top in columns), y0), h, scale)
    xs, ys = [x0], []
    for _, b, top in columns:
        if ys and ys[-1] == top:
            xs[-1] = b  # equal tops merge into one column
        else:
            xs.append(b)
            ys.append(top)
    ys.append(y0)
    return StairPolygon(xs, ys, scale)


def decompose(inst: CoveringInstance) -> DecompositionResult:
    """All cells of the instance, split by shape, plus the empty indices.

    For a verified k-fold covering of the window every nonempty cell is a
    stair polygon and the cells tile the window exactly k-fold; on other
    inputs `non_stair` may be populated and downstream checks will fail with
    witnesses instead of this function raising.
    """
    return _decomposition(inst, stop_at_non_stair=False)


def stair_decomposition(inst: CoveringInstance) -> DecompositionResult | None:
    """`decompose(inst)` if every nonempty cell is a stair polygon, else
    None, found at the first cell that is not (in the last block of cutter
    rows built): what a proof of coverage by the stair tiling needs."""
    return _decomposition(inst, stop_at_non_stair=True)


def _decomposition(inst: CoveringInstance, stop_at_non_stair: bool):
    frame = inst.frame
    cells = []
    non_stair = []
    empty = []
    for start, block in _apex_blocks(frame):
        for i, apexes in enumerate(block, start):
            cell = _cell(frame, inst.k, i, apexes)
            if cell is None:
                empty.append(i)
            elif isinstance(cell, StairPolygon):
                cells.append((i, cell))
            elif stop_at_non_stair:
                return None
            else:
                non_stair.append((i, cell))
    return DecompositionResult(
        instance=inst,
        cells=tuple(cells),
        non_stair=tuple(non_stair),
        empty_indices=tuple(empty),
    )
