"""Independent brute-force oracles used to gate the fast implementations.

Everything here deliberately avoids the package's optimized code paths:
membership of a point in a half-open rectangle, stair cell or non-stair
cell is decided pointwise (`rect_contains`, `stair_contains`,
`stair_interior_contains`, `non_stair_contains`, the last on the cell's
ints against the point's Fractions), which the package itself never
needs, as it decides every membership in integers; a non-stair cell's
area and hypotenuse witness are computed column by column in Fractions
(`non_stair_area_reference`, `non_stair_witness_reference`); triangle
intersection goes through vertex containment, exact segment
crossings and rational grid sampling; cell regions are evaluated pointwise
from the defining set formula (inside the triangle and the window, not
inside at least k cutter triangles at once); the stair of the maximal area
is built by its uniform breaks, the grid stair-area maximum is found by a
dynamic program over the last break, and that program is itself checked by
a full enumeration over break tuples; coverage depth is counted triangle by
triangle, and the minimum depth over a window by testing every face sample
against every translate; the lattice translates meeting a window are found
by testing every coefficient pair of a box, in the basis as given, and
also row by row in `Fraction`s, which is the order of the int rows of
`lattice`; a perturbation draws `Fraction` shifts of `Point` corners; the
lattice search runs on `Fraction` scales, checks and budget keys. The
decomposition is rebuilt in Fractions, one `Triangle` pair test per cutter
candidate, and only its non-stair cells are put on the frame's integer
scale at the end; its cutter rule is kept as one numpy row per triangle
(`cutters_reference`), against which `decompose`'s blocks of rows are
tested; a single-column stair cell (`stair_rect`), a cell's anchor and its
inner corners are made from `Fraction` breaks; the exact tiling is judged
by counting, at the lower-left corner of every cell of the grid of
breaks, the stair cells that contain it; the boundary audit compares every
ordered pair of cells by its own search of boundary segments against
column rectangles, with the cutting relation of `Triangle`s in Fractions;
the two corner audits test every anchor or inner corner against every
cell, in Fractions; a stair cell's area is summed column by column in
Fractions of its breaks (`stair_area`), and the bound chain one Fraction
per cell (`density_chain_reference`); and the depth scan's count tables
are built by `np.add.at` (`count_tables_reference`).
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, isqrt

import numpy as np

from staircover import arrangement
from staircover.arrangement import Frame, _distinct, _samples, _sweep
from staircover.bounds import BoundReport, ChainLink, max_stair_area, stair_area_bound
from staircover.decomposition import CoveringInstance, DecompositionResult, NonStairCell
from staircover.geom import Point, Rect, StairPolygon, pt
from staircover.lattice import (
    _PERTURB_TRIES, Lattice, LatticeSearchReport, _critical_size, _guard_density, hermite_basis,
    lattice_multiplicity,
)
from staircover.rational import int_at_least, rat
from staircover.verification import (
    PASS, AuditVerdict, _fail, coverage_certificate, verify_exact_tiling,
)


# --- triangle translates and the cutting relation, in Fractions -------------

def precedes(p: Point, q: Point) -> bool:
    """Strict order: smaller coordinate sum first, ties broken by smaller x.

    Total on distinct points; p never precedes itself.
    """
    return (p.x + p.y, p.x) < (q.x + q.y, q.x)


@dataclass(frozen=True)
class Triangle:
    """A translate of the canonical right triangle, anchored at its corner."""

    corner: Point

    @classmethod
    def at(cls, x, y) -> "Triangle":
        return cls(pt(x, y))

    @property
    def hyp_sum(self) -> Fraction:
        """Value of x + y along the hypotenuse."""
        return self.corner.x + self.corner.y + 1

    def contains(self, p: Point) -> bool:
        return (
            p.x >= self.corner.x
            and p.y >= self.corner.y
            and p.x + p.y <= self.hyp_sum
        )


def tri_intersects(a: Triangle, b: Triangle) -> bool:
    """Whether two closed triangle translates share at least one point.

    The componentwise max of the corners is the lowest point of the
    intersection of the two quadrants; the triangles meet exactly when that
    point still lies under both hypotenuses.
    """
    return max(a.corner.x, b.corner.x) + max(a.corner.y, b.corner.y) <= min(
        a.hyp_sum, b.hyp_sum
    )


def cuts(a: Triangle, b: Triangle) -> bool:
    """Whether *a* cuts *b*: distinct, intersecting, and b's corner precedes a's.

    For any two distinct intersecting translates exactly one direction holds.
    """
    return a != b and tri_intersects(a, b) and precedes(b.corner, a.corner)


# --- pointwise membership of rectangles and cells, in Fractions -------------

def rect_contains(rect: Rect, p: Point) -> bool:
    """Whether p lies in the half-open rectangle [x0, x1) x [y0, y1)."""
    return rect.x0 <= p.x < rect.x1 and rect.y0 <= p.y < rect.y1


def stair_contains(cell: StairPolygon, p: Point) -> bool:
    """Whether p lies in the half-open stair polygon: in the column
    [x_i, x_{i+1}) that holds p.x, from the bottom y_{r+1} up to its top
    y_i, top excluded."""
    i = bisect_right(cell.x_breaks, p.x) - 1
    if i < 0 or i > cell.stair_count:
        return False
    return cell.y_breaks[-1] <= p.y < cell.y_breaks[i]


def stair_interior_contains(cell: StairPolygon, p: Point) -> bool:
    """Membership in the topological interior of the closure.

    Strict on the outer boundary; at an internal break x = x_j the column
    top is the smaller of the two adjacent tops.
    """
    if not (cell.x_breaks[0] < p.x < cell.x_breaks[-1]):
        return False
    if not (cell.y_breaks[-1] < p.y):
        return False
    # at an internal break bisect lands on the right-hand column, whose
    # top is the smaller of the two adjacent tops, as required
    i = bisect_right(cell.x_breaks, p.x) - 1
    return p.y < cell.y_breaks[i]


def stair_rect(x0, x1, y0, y1) -> StairPolygon:
    """Single-column (r = 0) stair polygon [x0,x1) x [y0,y1), from any
    exact rational representation."""
    return StairPolygon.of((x0, x1), (y1, y0))


def anchor(cell: StairPolygon) -> Point:
    """The lower-left vertex (x_0, y_{r+1})."""
    return Point(cell.x_breaks[0], cell.y_breaks[-1])


def inner_corners(cell: StairPolygon) -> tuple[Point, ...]:
    """The reflex corners (x_j, y_j) for j = 1..r; empty when r = 0."""
    xs, ys = cell.x_breaks, cell.y_breaks
    return tuple(Point(xs[j], ys[j]) for j in range(1, len(xs) - 1))


def non_stair_contains(cell: NonStairCell, p: Point) -> bool:
    """Whether p lies in one of the cell's half-open columns and on or
    under its closed hypotenuse, read off the cell's ints."""
    x, y = p.x * cell.scale, p.y * cell.scale
    xs, ys = cell.xs, cell.ys
    return x + y <= cell.diag and ys[-1] <= y and any(
        a <= x < b and y < top for a, b, top in zip(xs, xs[1:], ys))


def _non_stair_columns(cell: NonStairCell):
    """The cell's columns as `Rect`s and its hypotenuse offset, in Fractions."""
    xs = [Fraction(v, cell.scale) for v in cell.xs]
    ys = [Fraction(v, cell.scale) for v in cell.ys]
    rects = [Rect(a, b, ys[-1], top) for a, b, top in zip(xs, xs[1:], ys)]
    return rects, Fraction(cell.diag, cell.scale)


def non_stair_area_reference(cell: NonStairCell) -> Fraction:
    """`NonStairCell.area` in Fractions, column by column: the full part
    left of where the hypotenuse enters, plus the part under it."""
    columns, diag_sum = _non_stair_columns(cell)
    total = Fraction(0)
    for c in columns:
        lo = max(c.x0, diag_sum - c.y1)  # diagonal enters above here
        hi = min(c.x1, diag_sum - c.y0)
        full_to = min(c.x1, max(c.x0, lo))
        total += (full_to - c.x0) * (c.y1 - c.y0)
        if lo < hi:
            # triangular part: height diag_sum - x - y0 over [lo, hi)
            total += (hi - lo) * (diag_sum - c.y0) - (hi * hi - lo * lo) / 2
    return total


def non_stair_witness_reference(cell: NonStairCell) -> Point:
    """`NonStairCell.diagonal_witness` in Fractions: the midpoint of the
    first column's stretch of hypotenuse, else a column's closed corner on
    it."""
    columns, diag_sum = _non_stair_columns(cell)
    for c in columns:
        lo = max(c.x0, diag_sum - c.y1)
        hi = min(c.x1, diag_sum - c.y0)
        if lo < hi:
            x = (lo + hi) / 2
            return Point(x, diag_sum - x)
    for c in columns:
        # degenerate cell: only the closed corner touches the hypotenuse
        if c.x0 + c.y0 == diag_sum:
            return Point(c.x0, c.y0)
    raise ValueError("cell has no point on the hypotenuse")


# --- exact convex-geometry primitives -------------------------------------

def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(
        a.y, b.y
    )


def _segments_meet(a: Point, b: Point, c: Point, d: Point) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4 and o1 * o2 <= 0 and o3 * o4 <= 0:
        return True
    return any(
        _on_segment(p, q, r)
        for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (c, d, b))
    )


def _tri_vertices(t: Triangle) -> tuple[Point, Point, Point]:
    v = t.corner
    return (v, Point(v.x + 1, v.y), Point(v.x, v.y + 1))


def tri_intersects_oracle(t1: Triangle, t2: Triangle, grid: int = 0) -> bool:
    """Closed-triangle intersection by first principles.

    Vertex containment either way, else any pair of edges meeting (complete
    for closed convex sets). With grid > 0 also scans a rational grid over
    the joint bounding box, which can only confirm, never refute.
    """
    v1, v2 = _tri_vertices(t1), _tri_vertices(t2)
    if any(t2.contains(p) for p in v1) or any(t1.contains(p) for p in v2):
        return True
    edges1 = [(v1[i], v1[(i + 1) % 3]) for i in range(3)]
    edges2 = [(v2[i], v2[(i + 1) % 3]) for i in range(3)]
    if any(_segments_meet(a, b, c, d) for a, b in edges1 for c, d in edges2):
        return True
    if grid:
        lo_x = min(t1.corner.x, t2.corner.x)
        lo_y = min(t1.corner.y, t2.corner.y)
        for i in range(grid + 1):
            for j in range(grid + 1):
                p = Point(lo_x + Fraction(i, grid) * 2, lo_y + Fraction(j, grid) * 2)
                if t1.contains(p) and t2.contains(p):
                    return True
    return False


# --- cell set-formula oracle ----------------------------------------------

def _cell_bbox(inst: CoveringInstance, i: int) -> Rect | None:
    corner = inst.corners[i]
    tri = Triangle(corner)
    x0 = max(corner.x, Fraction(0))
    y0 = max(corner.y, Fraction(0))
    x1 = min(inst.window, tri.hyp_sum - y0)
    y1 = min(inst.window, tri.hyp_sum - x0)
    if x0 >= x1 or y0 >= y1:
        return None
    return Rect(x0, x1, y0, y1)


def _scaled_breaks(values, scale) -> np.ndarray:
    return np.asarray([int(v * scale) for v in values], dtype=np.int64)


def _column_mask(cell, scale, ts, ys) -> np.ndarray:
    """Which samples lie in the half-open columns of a stair or non-stair
    cell, whose int breaks on the cell's own scale are put on *scale*."""
    ratio = Fraction(scale, cell.scale)
    xb = _scaled_breaks(cell.xs, ratio)
    yb = _scaled_breaks(cell.ys, ratio)
    idx = np.searchsorted(xb, np.asarray(ts, dtype=np.int64), side="right") - 1
    in_col = (idx >= 0) & (idx <= len(xb) - 2)
    tops = yb[np.clip(idx, 0, len(xb) - 2)]
    ys64 = np.asarray(ys, dtype=np.int64)
    return in_col[:, None] & (ys64 >= yb[-1]) & (ys64 < tops[:, None])


def _cutters_by_first_principles(inst: CoveringInstance, i: int) -> list[int]:
    """Indices j whose closed triangle meets triangle i (vertex and edge
    tests) and whose corner is later in the sum-then-x order."""
    c = inst.corners[i]
    t = Triangle(c)
    return [
        j
        for j, d in enumerate(inst.corners)
        if (c.x + c.y, c.x) < (d.x + d.y, d.x)
        # each triangle lies in the unit square above its corner
        and abs(d.x - c.x) <= 1
        and abs(d.y - c.y) <= 1
        and tri_intersects_oracle(t, Triangle(d))
    ]


def cell_matches_set_formula(inst: CoveringInstance, i: int, cell) -> bool:
    """Compare a computed cell against the defining set formula, evaluated
    pointwise on one sample per arrangement face of the relevant lines.

    The formula: a point belongs to the cell iff it is in the window, in the
    closed triangle i, and in fewer than k of the triangles that cut i.
    """
    bbox = _cell_bbox(inst, i)
    if bbox is None:
        return cell is None
    members = [i, *_cutters_by_first_principles(inst, i)]
    pts = [inst.corners[j] for j in members]
    checked = 0
    frame = Frame.of(pts, bbox)
    scale = frame.scale
    for ts, ys, valid in _iter_chunks(frame, _sweep(frame)):
        cx = _scaled_breaks([p.x for p in pts], scale)
        cy = _scaled_breaks([p.y for p in pts], scale)
        cs = _scaled_breaks([p.x + p.y + 1 for p in pts], scale)
        ts64 = np.asarray(ts, dtype=np.int64)
        ys64 = np.asarray(ys, dtype=np.int64)
        inside = (
            (ts64[:, None, None] >= cx)
            & (ys64[:, :, None] >= cy)
            & ((ts64[:, None, None] + ys64[:, :, None]) <= cs)
        )
        formula = inside[:, :, 0] & (inside[:, :, 1:].sum(axis=2) < inst.k)
        if cell is None:
            mask = np.zeros_like(formula)
        elif isinstance(cell, StairPolygon):
            mask = _column_mask(cell, scale, ts, ys)
        else:  # non-stair region: columns plus the closed diagonal half-plane
            diag = int(Fraction(cell.diag * scale, cell.scale))
            mask = _column_mask(cell, scale, ts, ys) & ((ts64[:, None] + ys64) <= diag)
        if not np.array_equal(mask[valid], formula[valid]):
            return False
        checked += int(valid.sum())
    return checked > 0


# --- decomposition in Fractions --------------------------------------------

def cutters_reference(frame, i: int):
    """Mask of the corners whose triangle cuts triangle i, with the
    componentwise maxima (mx, my) of corner i and every corner: one numpy
    row over the frame, the rule that `decomposition` applies a block of
    rows at a time.

    j cuts i when j comes later in the sum-then-x order (cs orders the sums)
    and the two closed triangles meet: the lowest point (mx, my) of the two
    quadrants' intersection lies under both hypotenuses."""
    cx, cy, cs = frame.cx, frame.cy, frame.cs
    mx = np.maximum(cx, cx[i])
    my = np.maximum(cy, cy[i])
    later = (cs > cs[i]) | ((cs == cs[i]) & (cx > cx[i]))
    return later & (mx + my <= np.minimum(cs, cs[i])), mx, my


def _reference_cutters(inst: CoveringInstance, i: int) -> list[int]:
    tris = [Triangle(c) for c in inst.corners]
    target = tris[i]
    return [j for j, t in enumerate(tris) if j != i and cuts(t, target)]


def _reference_columns(apexes, k, x0, y0, x_hi, y_hi):
    """(x_start, x_end, top) columns below the k-th dominance staircase of
    *apexes* inside [x0, x_hi) x [y0, y_hi), tops non-increasing."""
    relevant = sorted(
        (a for a in apexes if a.x < x_hi and a.y < y_hi), key=lambda a: (a.x, a.y)
    )
    ys_seen: list[Fraction] = []
    idx = 0
    while idx < len(relevant) and relevant[idx].x <= x0:
        insort(ys_seen, relevant[idx].y)
        idx += 1
    columns = []
    x = x0
    while x < x_hi:
        top = y_hi if len(ys_seen) < k else min(y_hi, ys_seen[k - 1])
        next_x = min(relevant[idx].x if idx < len(relevant) else x_hi, x_hi)
        if top <= y0:
            break
        if next_x > x:
            columns.append((x, next_x, top))
        x = next_x
        while idx < len(relevant) and relevant[idx].x <= x:
            insort(ys_seen, relevant[idx].y)
            idx += 1
    return columns


def _columns_to_stair(columns, bottom) -> StairPolygon:
    """Contiguous (x0, x1, top) columns with equal adjacent tops merged."""
    merged = []
    for x0, x1, top in columns:
        if merged and merged[-1][2] == top:
            merged[-1] = (merged[-1][0], x1, top)
        else:
            merged.append((x0, x1, top))
    x_breaks = [merged[0][0]] + [c[1] for c in merged]
    y_breaks = [c[2] for c in merged] + [bottom]
    return StairPolygon.of(x_breaks, y_breaks)


def _reference_cell(inst: CoveringInstance, i: int):
    corner = inst.corners[i]
    tri = Triangle(corner)
    l = inst.window
    x0 = max(corner.x, Fraction(0))
    y0 = max(corner.y, Fraction(0))
    if x0 >= l or y0 >= l or x0 + y0 > tri.hyp_sum:
        return None
    apexes = [
        Point(max(corner.x, inst.corners[j].x), max(corner.y, inst.corners[j].y))
        for j in _reference_cutters(inst, i)
    ]
    columns = _reference_columns(apexes, inst.k, x0, y0, l, l)
    h = tri.hyp_sum
    kept = [(a, b, top) for a, b, top in columns if a + y0 <= h]
    if not kept:
        return None
    if all(b + top <= h for a, b, top in kept):
        return _columns_to_stair(kept, y0)
    # only now onto the frame's scale, of which every value here is a multiple
    scale = inst.frame.scale
    xs = _on_scale([kept[0][0], *(b for _, b, _ in kept)], scale)
    ys = _on_scale([*(top for *_, top in kept), y0], scale)
    return NonStairCell(xs, ys, *_on_scale([h], scale), scale)


def _on_scale(values, scale: int) -> tuple[int, ...]:
    """Exact Fractions times *scale*, as ints."""
    scaled = [v * scale for v in values]
    assert all(v.denominator == 1 for v in scaled), (values, scale)
    return tuple(v.numerator for v in scaled)


def decompose_reference(inst: CoveringInstance) -> DecompositionResult:
    """`decomposition.decompose` in Fraction arithmetic, cell by cell, with
    every cutter found by a `Triangle` pair test."""
    cells, non_stair, empty = [], [], []
    for i in range(inst.size):
        cell = _reference_cell(inst, i)
        if cell is None:
            empty.append(i)
        elif isinstance(cell, StairPolygon):
            cells.append((i, cell))
        else:
            non_stair.append((i, cell))
    return DecompositionResult(inst, tuple(cells), tuple(non_stair), tuple(empty))


# --- exact tiling ---------------------------------------------------------

def exact_tiling_reference(cells, k: int, l: Fraction):
    """(point, multiplicity) at the first lower-left grid point, in (x, y)
    order, that lies in other than k of the stair cells, or None. The grid
    is spanned by 0, l and every break of the cells, which lie in [0, l]^2;
    each point's multiplicity is counted with `stair_contains`."""
    xs = sorted({Fraction(0), l}.union(*(c.x_breaks for c in cells)))
    ys = sorted({Fraction(0), l}.union(*(c.y_breaks for c in cells)))
    for x in xs[:-1]:
        for y in ys[:-1]:
            p = Point(x, y)
            m = sum(stair_contains(c, p) for c in cells)
            if m != k:
                return p, m
    return None


# --- boundary audit -------------------------------------------------------

def _boundary_segments(cell: StairPolygon):
    """The closed top/right staircase path, closure(S) minus S, as closed
    axis-aligned segments (a, b): the top of every column, then the riser
    down to the next column top, the last one ending at the bottom-right
    corner."""
    xs, ys = cell.x_breaks, cell.y_breaks
    segs = []
    for i in range(len(xs) - 1):
        segs.append((Point(xs[i], ys[i]), Point(xs[i + 1], ys[i])))
        segs.append((Point(xs[i + 1], ys[i + 1]), Point(xs[i + 1], ys[i])))
    return segs


def _segment_rect_witness(a: Point, b: Point, rect: Rect) -> Point | None:
    """The lowest-leftmost point of closed segment ab in the half-open rect,
    or None if they are disjoint."""
    lo_x, hi_x = sorted((a.x, b.x))
    lo_y, hi_y = sorted((a.y, b.y))
    # closed [lo, hi] meets half-open [c0, c1) iff lo < c1 and hi >= c0
    if lo_x < rect.x1 and hi_x >= rect.x0 and lo_y < rect.y1 and hi_y >= rect.y0:
        return Point(max(lo_x, rect.x0), max(lo_y, rect.y0))
    return None


def removed_boundary_hit_reference(cell_a: StairPolygon, cell_b: StairPolygon):
    """`verification._removed_boundary_hit` by a segment search: A's boundary
    segments in path order against B's column rectangles in x order."""
    for a, b in _boundary_segments(cell_a):
        for rect in cell_b.to_rects():
            w = _segment_rect_witness(a, b, rect)
            if w is not None:
                return w
    return None


def audit_boundary_cut_reference(corners, indexed_cells):
    """`verification.audit_boundary_cut` comparing every ordered pair of
    cells by the segment search, with no bounding-box prefilter."""
    tris = {i: Triangle(corners[i]) for i, _ in indexed_cells}
    hits = {}
    for i, cell_i in indexed_cells:
        for j, cell_j in indexed_cells:
            if i != j:
                hits[(i, j)] = removed_boundary_hit_reference(cell_i, cell_j)
    directed = AuditVerdict("boundary_vs_cutter", PASS, "no cutter boundary meets a cut cell")
    for (i, j), w in sorted(hits.items()):
        if w is not None and cuts(tris[i], tris[j]):
            directed = _fail(
                "boundary_vs_cutter",
                f"triangle {i} cuts triangle {j} but boundary of cell {i} meets cell {j}",
                cutter=i,
                cut=j,
                point=w,
            )
            break
    pairwise = AuditVerdict("boundary_one_sided", PASS, "every pair is one-sided")
    for i, j in ((i, j) for i, _ in indexed_cells for j, _ in indexed_cells if i < j):
        w_ij, w_ji = hits.get((i, j)), hits.get((j, i))
        if w_ij is not None and w_ji is not None:
            pairwise = _fail(
                "boundary_one_sided",
                f"boundaries of cells {i} and {j} each meet the other cell",
                first=i,
                second=j,
                point=w_ij,
                point_reverse=w_ji,
            )
            break
    return directed, pairwise


# --- corner audits ---------------------------------------------------------

def inner_corners_reference(indexed_cells) -> AuditVerdict:
    """`verification.audit_inner_corners` scanning every entry for every
    inner corner, in Fractions."""
    check = "corner_anchor_column"
    corners_checked = 0
    for i, cell in indexed_cells:
        for corner in inner_corners(cell):
            corners_checked += 1
            found = any(
                j != i and stair_contains(other, corner) and anchor(other).x == corner.x
                for j, other in indexed_cells
            )
            if not found:
                return _fail(
                    check,
                    f"inner corner of cell {i} is in no cell anchored at its x",
                    cell=i,
                    point=corner,
                )
    return AuditVerdict(check, PASS, f"{corners_checked} inner corners checked")


def corner_counts_reference(indexed_cells, k: int):
    """`verification.audit_corner_counts` testing every entry's anchor
    against every cell, in Fractions."""
    n_prime = len(indexed_cells)
    anchor_counts = {}
    for i, cell in indexed_cells:
        corner_set = set(inner_corners(cell))
        anchor_counts[i] = sum(
            1
            for j, other in indexed_cells
            if j != i
            and (stair_interior_contains(cell, anchor(other)) or anchor(other) in corner_set)
        )
    lower = AuditVerdict("anchor_count_lower", PASS, "n_i >= r_i - k + 1 for all cells")
    for i, cell in indexed_cells:
        if anchor_counts[i] < cell.stair_count - k + 1:
            lower = _fail(
                "anchor_count_lower",
                f"cell {i}: {anchor_counts[i]} anchors < r - k + 1 = {cell.stair_count - k + 1}",
                cell=i,
                anchors=anchor_counts[i],
                stairs=cell.stair_count,
            )
            break
    total_anchors = sum(anchor_counts.values())
    if total_anchors <= k * n_prime:
        upper = AuditVerdict(
            "anchor_count_upper", PASS, f"sum n_i = {total_anchors} <= {k * n_prime}"
        )
    else:
        upper = _fail(
            "anchor_count_upper",
            f"sum n_i = {total_anchors} exceeds k*N' = {k * n_prime}",
            total=total_anchors,
            limit=k * n_prime,
        )
    total_stairs = sum(cell.stair_count for _, cell in indexed_cells)
    budget = (2 * k - 1) * n_prime
    if total_stairs <= budget:
        total = AuditVerdict("stair_count_total", PASS, f"sum r_i = {total_stairs} <= {budget}")
    else:
        total = _fail(
            "stair_count_total",
            f"sum r_i = {total_stairs} exceeds (2k-1)*N' = {budget}",
            total=total_stairs,
            limit=budget,
        )
    stats = {"anchor_counts": anchor_counts, "sum_anchor_counts": total_anchors}
    return lower, upper, total, stats


# --- coverage depth -------------------------------------------------------

def _iter_chunks(frame: Frame, sweep):
    """Yield (ts, ys, valid): every face sample of the sweep, in blocks of
    `arrangement._CHUNK` sweep lines and in the depth scan's order."""
    slabs = sweep[2]
    for start in range(0, len(slabs), arrangement._CHUNK):
        ts = slabs[start : start + arrangement._CHUNK]
        yield ts, *_samples(frame, sweep, ts)


def count_tables_reference(frame: Frame, y_base, s_base):
    """`arrangement._count_tables` by `np.add.at` into int32 count tables,
    one (row, column) cell per corner, then their int32 cumsums."""
    ucx = _distinct(frame.cx)
    ix = np.searchsorted(ucx, frame.cx)

    def table(base, v):
        counts = np.zeros((len(ucx) + 1, len(base) + 1), dtype=np.int32)
        np.add.at(counts, (ix + 1, np.searchsorted(base, v) + 1), 1)
        return counts.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32)

    return ucx, ucx + frame.scale, table(y_base, frame.cy), table(s_base, frame.cs)


def depth_at(corners, p: Point) -> int:
    """Number of triangle translates (anchored at *corners*) containing p."""
    return sum(1 for c in corners if Triangle(c).contains(p))


def sample_depths(corners, scale, ts, ys) -> np.ndarray:
    """Depth at each sample (ts[i], ys[i, j]) of a frame of this scale, by
    testing it against every translate."""
    if not corners:
        return np.zeros(ys.shape, dtype=np.int64)
    dtype = ts.dtype
    cx = np.asarray([int(c.x * scale) for c in corners], dtype=dtype)
    cy = np.asarray([int(c.y * scale) for c in corners], dtype=dtype)
    cs = np.asarray([int((c.x + c.y + 1) * scale) for c in corners], dtype=dtype)
    t3, y3 = ts[:, None, None], ys[:, :, None]
    return ((t3 >= cx) & (y3 >= cy) & ((t3 + y3) <= cs)).sum(axis=2)


def min_depth_reference(corners, window: Rect):
    """`arrangement.min_depth` by an exhaustive N-wide broadcast: every face
    sample of every chunk is tested against every translate. Same samples,
    chunk order and argmin rule, so (depth, witness) must match exactly."""
    corners = list(corners)
    best = None
    witness = None
    frame = Frame.of(corners, window)
    scale = frame.scale
    for ts, ys, valid in _iter_chunks(frame, _sweep(frame)):
        depth = sample_depths(corners, scale, ts, ys)
        depth = np.where(valid, depth, np.iinfo(np.int64).max)
        flat = int(np.argmin(depth))
        row, col = divmod(flat, depth.shape[1])
        if valid[row, col]:
            d = int(depth[row, col])
            if best is None or d < best:
                best = d
                witness = Point(
                    Fraction(int(ts[row]), scale), Fraction(int(ys[row, col]), scale)
                )
    if best is None:
        raise ValueError("window produced no sample points")
    return best, witness


# --- lattice translates ---------------------------------------------------

def translates_meeting_scan(u: Point, v: Point, window: Rect, radius: int):
    """Lattice points i*u + j*v, |i|, |j| <= radius, whose closed triangle
    meets the half-open window, by testing every coefficient pair; sorted by
    (x, y). Returns (points, ring), ring being how many of the points have
    max(|i|, |j|) = radius: while it is 0 the box is wide enough."""
    found = []
    ring = 0
    for i in range(-radius, radius + 1):
        for j in range(-radius, radius + 1):
            x = i * u.x + j * v.x
            y = i * u.y + j * v.y
            # (max(x, x0), max(y, y0)) is the window point nearest the corner
            if (
                x < window.x1
                and y < window.y1
                and max(x, window.x0) + max(y, window.y0) <= x + y + 1
            ):
                found.append(Point(x, y))
                ring += max(abs(i), abs(j)) == radius
    found.sort(key=lambda p: (p.x, p.y))
    return found, ring


def translates_meeting_reference(a, b, c, window: Rect) -> list[Point]:
    """`lattice._translates_meeting` in `Fraction`s, as `Point`s in its
    order: rows y = j*c from the first at least -1 to the last below
    window.y1, and in each row the points x = i*a + j*b from the first at
    least -1 - min(y, 0) to the last below window.x1."""
    out = []
    for j in range(ceil(-1 / c), ceil(window.y1 / c)):
        y, shift = j * c, j * b
        lo = -1 - min(y, 0)
        for i in range(ceil((lo - shift) / a), ceil((window.x1 - shift) / a)):
            out.append(Point(i * a + shift, y))
    return out


def perturb_reference(inst: CoveringInstance, magnitude, seed: int) -> CoveringInstance:
    """`perturb_instance` in `Fraction`s: every corner shifted by
    magnitude * r / 64 in each coordinate, r drawn by `randint(-64, 64)`,
    x before y, a corner re-drawn up to 16 times while it repeats an
    earlier one; up to _PERTURB_TRIES draws, the first that covers wins."""
    mag = rat(magnitude)
    if mag < 0:
        raise ValueError("magnitude must be nonnegative")
    if mag == 0:
        return inst
    rng = random.Random(seed)
    den = 64
    for _ in range(_PERTURB_TRIES):
        used: set[Point] = set()
        corners: list[Point] = []
        for c in inst.corners:
            for _ in range(16):
                cand = Point(
                    c.x + mag * Fraction(rng.randint(-den, den), den),
                    c.y + mag * Fraction(rng.randint(-den, den), den),
                )
                if cand not in used:
                    used.add(cand)
                    corners.append(cand)
                    break
            else:
                break
        if len(corners) < inst.size:
            continue
        candidate = CoveringInstance.of(inst.k, inst.window, corners)
        if coverage_certificate(candidate).covers:
            return candidate
    raise ValueError(
        f"no covering-preserving perturbation of magnitude {mag} found "
        f"in {_PERTURB_TRIES} attempts"
    )


def search_optimal_lattice_reference(
    k: int, budget: int = 6000, seed_grid: int = 6, warm_starts: tuple[Lattice, ...] = (),
) -> LatticeSearchReport:
    """`lattice.search_optimal_lattice` in `Fraction`s: every scale t is a
    Fraction, a check is the test t * s* <= 1 on Fractions, the budget set
    and the critical sizes are keyed by Fraction shapes, and every seed
    shape is built before the first ray."""
    int_at_least(k, 1, "fold must be a positive integer")
    int_at_least(budget, 1, "budget must be at least 1")
    int_at_least(seed_grid, 1, "seed grid must be at least 1")
    target_det = Fraction(1, 2 * k + 1)
    seen: set[tuple[tuple[Fraction, Fraction], Fraction]] = set()
    probes = tuple(Fraction(n, 100) for n in (100, 99, 95, 90, 80, 65, 50, 35, 20, 10))

    @cache
    def critical(shape) -> Fraction:
        s = _critical_size(shape, k)
        _guard_density(k, s * s / (2 * shape[1]))
        return s

    def feasible(shape, t) -> bool | None:
        if (shape, t) not in seen:
            if len(seen) >= budget:
                return None
            seen.add((shape, t))
        return t * critical(shape) <= 1

    def sqrt_below(x: Fraction) -> Fraction:
        return Fraction(isqrt(x.numerator * x.denominator), x.denominator)

    def ray_best(shape, precision: Fraction):
        gamma = shape[1]
        for f in probes:
            t_lo = sqrt_below(f * target_det / gamma)
            verdict = feasible(shape, t_lo)
            if verdict is None:
                return None
            if verdict:
                break
        else:
            return None
        t_hi = Fraction(21, 20) * sqrt_below(target_det / gamma) + Fraction(1, 10**6)
        while (t_hi - t_lo) > precision * t_lo and len(seen) < budget:
            mid = (t_lo + t_hi) / 2
            if feasible(shape, mid):
                t_lo = mid
            else:
                t_hi = mid
        return (t_lo * t_lo * gamma, t_lo, shape)

    g = Fraction(1, seed_grid)
    shapes = [(b / a, c / a) for a, b, c in map(hermite_basis, warm_starts)] + [
        (Fraction(i, seed_grid), Fraction(j, seed_grid))
        for i in range(seed_grid)
        for j in range(1, seed_grid + 1)
    ]
    coarse = Fraction(1, 64)
    best = best_diag = None
    for shape in shapes:
        rec = ray_best(shape, coarse)
        if rec is not None:
            if best is None or rec[0] > best[0]:
                best = rec
            if shape[0] == shape[1] and (best_diag is None or rec[0] > best_diag[0]):
                best_diag = rec
        if len(seen) >= budget:
            break

    if best is None:
        return LatticeSearchReport(k, None, 0, len(seen), budget)

    if best_diag is not None:
        center = best_diag[2][1]
        width = 2 * g
        for level in range(6):
            lo = max(center - width / 2, width / 64)
            samples = [lo + Fraction(i, 16) * width for i in range(17)]
            level_best = None
            for gamma in samples:
                if gamma > 2:
                    continue
                rec = ray_best((gamma, gamma), Fraction(1, 256 << level))
                if rec is not None and (level_best is None or rec[0] > level_best[0]):
                    level_best = rec
                if len(seen) >= budget:
                    break
            if level_best is None or len(seen) >= budget:
                break
            center = level_best[2][1]
            width = width / 4
            if level_best[0] > best[0]:
                best = level_best

    step = g / 2
    min_step = g / (1 << 12)
    while len(seen) < budget and step >= min_step:
        precision = min(coarse, step / 4)
        improved = None
        beta, gamma = best[2]
        for db, dc in (
            (step, 0), (-step, 0), (0, step), (0, -step),
            (step, step), (-step, step), (step, -step), (-step, -step),
        ):
            shape = (beta + db, gamma + dc)
            if not (0 <= shape[0] < 1 and 0 < shape[1] <= 2):
                continue
            rec = ray_best(shape, precision)
            if rec is not None and rec[0] > best[0] and (improved is None or rec > improved):
                improved = rec
        if improved is not None:
            best = improved
        else:
            step = step / 2
    rec = ray_best(best[2], Fraction(1, 1 << 12))
    if rec is not None and rec[0] > best[0]:
        best = rec

    _, t, (beta, gamma) = best
    lat = Lattice(Point(t, Fraction(0)), Point(t * beta, t * gamma))
    multiplicity = lattice_multiplicity(lat)
    if multiplicity < k:
        raise AssertionError(
            f"k={k} lattice {lat} passed the critical size but has "
            f"multiplicity {multiplicity}; exact verifier bug"
        )
    return LatticeSearchReport(k, lat, multiplicity, len(seen), budget)


# --- cell areas and the bound chain in Fractions ---------------------------

def stair_area(cell: StairPolygon) -> Fraction:
    """The area of a stair cell, column by column in Fractions of its breaks."""
    xs, ys = cell.x_breaks, cell.y_breaks
    return sum(((b - a) * (top - ys[-1]) for a, b, top in zip(xs, xs[1:], ys)), Fraction(0))


def density_chain_reference(result: DecompositionResult) -> BoundReport:
    """`bounds.density_chain` with every sum taken over the cells one
    `Fraction` at a time: the cells' `stair_area`s and their A(r_i)."""
    inst = result.instance
    k, l = inst.k, inst.window
    cells = tuple((i, c.stair_count, stair_area(c)) for i, c in result.cells)
    if not result.is_stair_decomposition:
        return BoundReport(cells, (), "cells are not all stair polygons")
    if not verify_exact_tiling(result.stair_cells(), k, l).passed:
        return BoundReport(cells, (), "cells do not tile the window exactly k-fold")
    n_prime = len(cells)
    sum_r = sum(r for _, r, _ in cells)
    window_area = l * l
    cell_total = sum(a for _, _, a in cells) / k
    per_cell_bound = sum(max_stair_area(r) for _, r, _ in cells) / k
    jensen = Fraction(n_prime, k) * stair_area_bound(Fraction(sum_r, n_prime))
    budget = Fraction(n_prime, k) * max_stair_area(2 * k - 1)
    instance_total = Fraction(inst.size, k) * max_stair_area(2 * k - 1)
    links = [ChainLink("window_area", window_area, True),
             ChainLink("cell_area_total", cell_total, cell_total == window_area)]
    for label, value in (
        ("per_cell_bound", per_cell_bound),
        ("jensen_bound", jensen),
        ("stair_budget_bound", budget),
        ("instance_bound", instance_total),
    ):
        links.append(ChainLink(label, value, value >= links[-1].value))
    return BoundReport(cells, tuple(links))


# --- extremal stair construction and grid stair DP -------------------------

def max_stair_in_triangle(r: int) -> StairPolygon:
    """An r-stair polygon of the maximal area inside the closed triangle.

    Uniform breaks x_i = i/(r+2), column tops y_i = (r+1-i)/(r+2); each
    column's open corner sits exactly on the hypotenuse, so the half-open
    polygon stays inside the closed triangle with area max_stair_area(r).
    """
    area = max_stair_area(r)  # validates r
    d = r + 2
    xs = [Fraction(i, d) for i in range(r + 2)]
    ys = [Fraction(r + 1 - j, d) for j in range(r + 2)]
    stair = StairPolygon.of(xs, ys)
    if stair_area(stair) != area:
        raise AssertionError("extremal construction has wrong area; bug")
    return stair


def grid_max_stair_area(r: int, grid: int) -> Fraction:
    """Exact maximum area of an r-stair polygon inside the triangle with all
    breaks on the grid {0, 1/grid, ..., 1}.

    Independent check of `max_stair_area`: containment forces each column
    top y_i <= 1 - x_{i+1}, and raising any top or lowering the base to 0
    never shrinks the area, so the grid optimum is a maximization over the
    x-breaks alone, done here by dynamic programming over (columns, last
    break) in pure integer arithmetic (areas in units of 1/grid^2).
    """
    int_at_least(r, 0, "stair count must be a nonnegative integer")
    if grid < r + 2:
        raise ValueError("grid too coarse to place r+2 distinct breaks")
    g = grid
    # best[x] = max area (scaled by g^2) of j columns ending at break x, or
    # None where no j columns can end there
    best = [0] * (g + 1)  # zero columns: free choice of first break
    for _ in range(r + 1):
        nxt = [None] * (g + 1)
        for x1 in range(1, g + 1):
            height = g - x1  # top of the column ending at x1, with base 0
            if height < 1:
                continue  # top must stay strictly above the base
            nxt[x1] = max(
                (best[x0] + (x1 - x0) * height for x0 in range(x1) if best[x0] is not None),
                default=None,
            )
        best = nxt
    # breaks 0, 1, ..., r + 1 always fit, as grid >= r + 2
    return Fraction(max(v for v in best if v is not None), g * g)


# --- exhaustive grid stair search ------------------------------------------

def grid_stair_max_bruteforce(r: int, g: int) -> Fraction:
    """Maximum area over ALL r-stair polygons with breaks on {0,1/g,...,1}
    contained in the closed canonical triangle, by full enumeration."""
    best = 0
    for xs in combinations(range(g + 1), r + 2):
        for ys_rev in combinations(range(g + 1), r + 2):
            ys = tuple(reversed(ys_rev))
            if any(xs[i + 1] + ys[i] > g for i in range(r + 1)):
                continue
            area = sum(
                (xs[i + 1] - xs[i]) * (ys[i] - ys[-1]) for i in range(r + 1)
            )
            if area > best:
                best = area
    return Fraction(best, g * g)
