"""Independent brute-force oracles used to gate the fast implementations.

Everything here deliberately avoids the package's optimized code paths:
triangle intersection goes through vertex containment, exact segment
crossings and rational grid sampling; cell regions are evaluated pointwise
from the defining set formula (inside the triangle and the window, not
inside at least k cutter triangles at once); the grid stair-area maximum is
a full enumeration over break tuples; coverage depth is counted triangle by
triangle, and the minimum depth over a window by testing every face sample
against every translate; the lattice translates meeting a window are found
by testing every coefficient pair of a box, in the basis as given.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from staircover.arrangement import _frame, _iter_chunks
from staircover.decomposition import CoveringInstance, cutter_set
from staircover.geom import Point, Rect, StairPolygon, Triangle


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


def cell_matches_set_formula(inst: CoveringInstance, i: int, cell) -> bool:
    """Compare a computed cell against the defining set formula, evaluated
    pointwise on one sample per arrangement face of the relevant lines.

    The formula: a point belongs to the cell iff it is in the window, in the
    closed triangle i, and in fewer than k of the triangles that cut i.
    """
    bbox = _cell_bbox(inst, i)
    if bbox is None:
        return cell is None
    members = [i, *cutter_set(inst, i)]
    pts = [inst.corners[j] for j in members]
    checked = 0
    frame = _frame(pts, bbox)
    scale = frame.scale
    for ts, ys, valid in _iter_chunks(frame):
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


# --- coverage depth -------------------------------------------------------

def depth_at(corners, p: Point) -> int:
    """Number of triangle translates (anchored at *corners*) containing p."""
    return sum(1 for c in corners if Triangle(c).contains(p))


def min_depth_reference(corners, window: Rect, *, early_below: int | None = None):
    """`arrangement.min_depth` by an N-wide broadcast: every face sample of
    each chunk is tested against every translate. Same samples, chunk order,
    argmin rule and early exit, so (depth, witness) must match exactly."""
    corners = list(corners)
    best = None
    witness = None
    frame = _frame(corners, window)
    scale = frame.scale
    for ts, ys, valid in _iter_chunks(frame):
        if corners:
            dtype = ts.dtype
            cx = np.asarray([int(c.x * scale) for c in corners], dtype=dtype)
            cy = np.asarray([int(c.y * scale) for c in corners], dtype=dtype)
            cs = np.asarray(
                [int((c.x + c.y + 1) * scale) for c in corners], dtype=dtype
            )
            t3, y3 = ts[:, None, None], ys[:, :, None]
            depth = ((t3 >= cx) & (y3 >= cy) & ((t3 + y3) <= cs)).sum(axis=2)
        else:
            depth = np.zeros(ys.shape, dtype=np.int64)
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
                if early_below is not None and best < early_below:
                    return best, witness
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
