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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .geom import (
    Point,
    Rect,
    StairPolygon,
    Triangle,
    columns_to_stair,
    cuts,
    pt,
)
from .rational import rat

__all__ = [
    "CoveringInstance",
    "DecompositionResult",
    "NonStairCell",
    "cutter_set",
    "cut_apex",
    "repeated_corners",
    "stair_cell",
    "decompose",
]


def repeated_corners(corners) -> list[tuple[int, int]]:
    """Pairs (i, j) with corners[j] == corners[i], i < j, in order of j.

    i is the first occurrence of the corner, so the list is empty exactly
    when the corners are pairwise distinct. One pass with a dict: O(N).
    """
    first: dict[Point, int] = {}
    pairs = []
    for j, c in enumerate(corners):
        i = first.setdefault(c, j)
        if i != j:
            pairs.append((i, j))
    return pairs


@dataclass(frozen=True)
class CoveringInstance:
    """A fold k, a half-open square window [0, l)^2 and N distinct corners."""

    k: int
    window: Fraction
    corners: tuple[Point, ...]

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"fold must be a positive integer, got {self.k!r}")
        if self.window <= 0:
            raise ValueError("window side must be positive")
        if not self.corners:
            raise ValueError("instance needs at least one translate")
        repeats = repeated_corners(self.corners)
        if repeats:
            smallest = min(str(self.corners[j]) for _, j in repeats)
            raise ValueError(f"corners must be pairwise distinct; repeated {smallest}")

    @classmethod
    def of(cls, k: int, window, corners) -> "CoveringInstance":
        return cls(k, rat(window), tuple(pt(x, y) for x, y in corners))

    @property
    def size(self) -> int:
        return len(self.corners)

    def triangles(self) -> tuple[Triangle, ...]:
        return tuple(Triangle(c) for c in self.corners)

    def window_rect(self) -> Rect:
        zero = Fraction(0)
        return Rect(zero, self.window, zero, self.window)


@dataclass(frozen=True)
class NonStairCell:
    """Cell region whose staircase still pokes over its triangle's hypotenuse.

    The point set is the union of the half-open columns intersected with the
    closed half-plane x + y <= diag_sum. Only non-coverings produce these.
    """

    columns: tuple[Rect, ...]
    diag_sum: Fraction

    def contains(self, p: Point) -> bool:
        return p.x + p.y <= self.diag_sum and any(c.contains(p) for c in self.columns)

    def area(self) -> Fraction:
        total = Fraction(0)
        for c in self.columns:
            lo = max(c.x0, self.diag_sum - c.y1)  # diagonal enters above here
            hi = min(c.x1, self.diag_sum - c.y0)
            full_to = min(c.x1, max(c.x0, lo))
            total += (full_to - c.x0) * (c.y1 - c.y0)
            if lo < hi:
                # triangular part: height diag_sum - x - y0 over [lo, hi)
                total += (hi - lo) * (self.diag_sum - c.y0) - (hi * hi - lo * lo) / 2
        return total

    def diagonal_witness(self) -> Point:
        """A point of the cell lying exactly on the closed hypotenuse."""
        for c in self.columns:
            lo = max(c.x0, self.diag_sum - c.y1)
            hi = min(c.x1, self.diag_sum - c.y0)
            if lo < hi:
                x = (lo + hi) / 2
                return Point(x, self.diag_sum - x)
        for c in self.columns:
            # degenerate cell: only the closed corner touches the hypotenuse
            if c.x0 + c.y0 == self.diag_sum:
                return Point(c.x0, c.y0)
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

    def cell_for(self, index: int):
        for i, cell in self.cells:
            if i == index:
                return cell
        for i, cell in self.non_stair:
            if i == index:
                return cell
        return None


def cutter_set(inst: CoveringInstance, i: int) -> tuple[int, ...]:
    """Indices j whose triangle cuts triangle i (intersects it and has the
    later corner in the sum-then-x order). Never contains i itself."""
    tris = inst.triangles()
    target = tris[i]
    return tuple(j for j, t in enumerate(tris) if j != i and cuts(t, target))


def cut_apex(t_i: Triangle, t_j: Triangle) -> Point:
    """Right-angle corner of the intersection T_i with a cutter T_j.

    The intersection of the two quadrants is the quadrant of the
    componentwise max of the corners; clipped by T_i's hypotenuse it is a
    right triangle similar to the canonical one, anchored at that max.
    """
    if not cuts(t_j, t_i):
        raise ValueError(f"{t_j} does not cut {t_i}")
    return Point(
        max(t_i.corner.x, t_j.corner.x), max(t_i.corner.y, t_j.corner.y)
    )


def _dominance_columns(apexes, k, x0, y0, x_hi, y_hi):
    """Columns of the region below the k-th dominance staircase of *apexes*
    inside [x0, x_hi) x [y0, y_hi).

    Returns (x_start, x_end, top) triples with non-increasing tops; the top of
    a column at x is min(y_hi, k-th smallest apex y among apexes with
    apex.x <= x). Equal apexes count separately toward the threshold.
    """
    relevant = sorted(
        (a for a in apexes if a.x < x_hi and a.y < y_hi), key=lambda a: (a.x, a.y)
    )
    ys_seen: list[Fraction] = []
    idx = 0
    # consume apexes already active at the left edge
    while idx < len(relevant) and relevant[idx].x <= x0:
        _insort(ys_seen, relevant[idx].y)
        idx += 1

    def current_top():
        if len(ys_seen) < k:
            return y_hi
        return min(y_hi, ys_seen[k - 1])

    columns = []
    x = x0
    while x < x_hi:
        top = current_top()
        next_x = relevant[idx].x if idx < len(relevant) else x_hi
        next_x = min(next_x, x_hi)
        if top <= y0:
            break  # staircase is non-increasing; nothing further survives
        if next_x > x:
            columns.append((x, next_x, top))
        x = next_x
        while idx < len(relevant) and relevant[idx].x <= x:
            _insort(ys_seen, relevant[idx].y)
            idx += 1
    return columns


def _insort(values, v):
    lo, hi = 0, len(values)
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    values.insert(lo, v)


def stair_cell(inst: CoveringInstance, i: int):
    """Cell of triangle i: a StairPolygon, a NonStairCell, or None if empty."""
    corner = inst.corners[i]
    tri = Triangle(corner)
    l = inst.window
    x0 = max(corner.x, Fraction(0))
    y0 = max(corner.y, Fraction(0))
    if x0 >= l or y0 >= l or x0 + y0 > tri.hyp_sum:
        return None
    apexes = [cut_apex(tri, Triangle(inst.corners[j])) for j in cutter_set(inst, i)]
    columns = _dominance_columns(apexes, inst.k, x0, y0, l, l)
    if not columns:
        return None
    h = tri.hyp_sum
    kept = [(a, b, top) for a, b, top in columns if a + y0 <= h]
    if not kept:
        return None
    if all(b + top <= h for a, b, top in kept):
        return columns_to_stair(kept, y0)
    return NonStairCell(
        columns=tuple(Rect(a, b, y0, top) for a, b, top in kept), diag_sum=h
    )


def decompose(inst: CoveringInstance) -> DecompositionResult:
    """All cells of the instance, split by shape, plus the empty indices.

    For a verified k-fold covering of the window every nonempty cell is a
    stair polygon and the cells tile the window exactly k-fold; on other
    inputs `non_stair` may be populated and downstream checks will fail with
    witnesses instead of this function raising.
    """
    cells = []
    non_stair = []
    empty = []
    for i in range(inst.size):
        cell = stair_cell(inst, i)
        if cell is None:
            empty.append(i)
        elif isinstance(cell, StairPolygon):
            cells.append((i, cell))
        else:
            non_stair.append((i, cell))
    return DecompositionResult(
        instance=inst,
        cells=tuple(cells),
        non_stair=tuple(non_stair),
        empty_indices=tuple(empty),
    )
