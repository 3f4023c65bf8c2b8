"""Independent brute-force oracles used to gate the fast implementations.

Everything here deliberately avoids the package's optimized code paths:
membership of a point in a half-open rectangle, stair cell or non-stair
cell is decided pointwise in Fractions (`rect_contains`, `stair_contains`,
`stair_interior_contains`, `non_stair_contains`), which the package itself
never needs, as it decides every membership in integers; triangle
intersection goes through vertex containment, exact segment
crossings and rational grid sampling; cell regions are evaluated pointwise
from the defining set formula (inside the triangle and the window, not
inside at least k cutter triangles at once); the stair of the maximal area
is built by its uniform breaks, the grid stair-area maximum is found by a
dynamic program over the last break, and that program is itself checked by
a full enumeration over break tuples; coverage depth is counted triangle by
triangle, and the minimum depth over a window by testing every face sample
against every translate; the lattice translates meeting a window are found
by testing every coefficient pair of a box, in the basis as given. The
decomposition is rebuilt in Fractions, one `Triangle` pair test per cutter
candidate; the exact tiling is judged by counting, at the lower-left
corner of every cell of the grid of breaks, the stair cells that contain
it; the boundary audit compares every ordered pair of cells by its own
search of boundary segments against column rectangles, with the cutting
relation of `Triangle`s in Fractions; and the two corner audits test every
anchor or inner corner against every cell, in Fractions.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from staircover import arrangement
from staircover.arrangement import Frame, _samples, _sweep
from staircover.bounds import max_stair_area
from staircover.decomposition import CoveringInstance, DecompositionResult, NonStairCell
from staircover.geom import Point, Rect, StairPolygon, pt
from staircover.rational import int_at_least
from staircover.verification import PASS, AuditVerdict, _fail


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


def non_stair_contains(cell: NonStairCell, p: Point) -> bool:
    """Whether p lies in one of the cell's half-open columns and on or
    under its closed hypotenuse."""
    return p.x + p.y <= cell.diag_sum and any(rect_contains(c, p) for c in cell.columns)


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


def _stair_mask(cell: StairPolygon, scale, ts, ys) -> np.ndarray:
    xb = _scaled_breaks(cell.x_breaks, scale)
    yb = _scaled_breaks(cell.y_breaks, scale)
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
            mask = _stair_mask(cell, scale, ts, ys)
        else:  # non-stair region: columns plus the closed diagonal half-plane
            mask = np.zeros_like(formula)
            for r in cell.columns:
                mask |= (
                    (ts64[:, None] >= int(r.x0 * scale))
                    & (ts64[:, None] < int(r.x1 * scale))
                    & (ys64 >= int(r.y0 * scale))
                    & (ys64 < int(r.y1 * scale))
                )
            mask &= (ts64[:, None] + ys64) <= int(cell.diag_sum * scale)
        if not np.array_equal(mask[valid], formula[valid]):
            return False
        checked += int(valid.sum())
    return checked > 0


# --- decomposition in Fractions --------------------------------------------

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
    return StairPolygon(x_breaks, y_breaks)


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
    return NonStairCell(
        columns=tuple(Rect(a, b, y0, top) for a, b, top in kept), diag_sum=h
    )


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
        for corner in cell.inner_corners():
            corners_checked += 1
            found = any(
                j != i and stair_contains(other, corner) and other.anchor.x == corner.x
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
        corner_set = set(cell.inner_corners())
        anchor_counts[i] = sum(
            1
            for j, other in indexed_cells
            if j != i
            and (stair_interior_contains(cell, other.anchor) or other.anchor in corner_set)
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
    stair = StairPolygon(xs, ys)
    if stair.area() != area:
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
