"""Exact verification: coverage certificates, exact k-fold tiling, and the
audit suite for the structural properties the decomposition must satisfy.

All checks are exact. The coverage certificate samples one rational point
per face of the line arrangement spanned by the triangle edges and window
boundary; the tiling check rasterizes the stair cells onto the grid of their
own breakpoints, where multiplicity is constant per grid cell and equal to
its value at the closed lower-left corner. Every failing verdict carries a
witness that can be re-evaluated independently.

The stair tiling is also a proof of coverage, as in the paper: if every
cell is a stair polygon lying in its own closed triangle, no two cells share
an index, and the cells tile the window exactly k-fold, then every window
point lies in k cells of k distinct triangles, so its depth is >= k.
`coverage_certificate` offers that proof to `arrangement.min_depth`, which
asks for it only on a scan of more than 1,000 sample slots per translate
(the cost rule, `arrangement._CERTIFY_SLOTS_PER_TRANSLATE`) and then stops
at its first sample of depth k: the exhaustive scan's (depth, witness).
Containment is checked here, exactly, not taken from `decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arrangement
from .decomposition import (
    CoveringInstance,
    DecompositionResult,
    decompose,
    repeated_corners,
)
from .geom import Point, StairPolygon, Triangle, cuts
from .rational import rat_str

__all__ = [
    "CoverageCertificate",
    "coverage_certificate",
    "is_k_fold_covering",
    "verify_exact_tiling",
    "multiplicity_grid",
    "AuditVerdict",
    "AuditReport",
    "run_audits",
    "audit_cell_shape",
    "audit_minimal_element",
    "audit_disjointness",
    "audit_boundary_cut",
    "audit_inner_corners",
    "audit_corner_counts",
    "PASS",
    "FAIL",
    "SKIP",
]

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


def _point_json(p: Point):
    return [rat_str(p.x), rat_str(p.y)]


@dataclass(frozen=True)
class CoverageCertificate:
    """Exact minimum coverage depth over the window, with an attaining point."""

    k: int
    min_depth: int
    witness: Point

    @property
    def covers(self) -> bool:
        return self.min_depth >= self.k


def coverage_certificate(
    inst: CoveringInstance, result: DecompositionResult | None = None
) -> CoverageCertificate:
    """Exact minimum depth and its witness, by the arrangement scan.

    On a large scan the stair tiling of `result` (decomposed here when not
    given) is asked to prove depth >= k first; the answer is the same
    either way.
    """

    def certify() -> int:
        decomposition = decompose(inst) if result is None else result
        return inst.k if _tiling_proves_depth(inst, decomposition) else 0

    depth, witness = arrangement.min_depth(
        inst.corners, inst.window_rect(), certify=certify
    )
    return CoverageCertificate(k=inst.k, min_depth=depth, witness=witness)


def _within_triangle(cell: StairPolygon, corner: Point) -> bool:
    """Whether the closed cell lies in the closed triangle at `corner`: its
    anchor dominates the corner, and the top-right corner (x_{j+1}, y_j) of
    every column lies under the hypotenuse."""
    h = corner.x + corner.y + 1
    return (
        cell.anchor.x >= corner.x
        and cell.anchor.y >= corner.y
        and all(x + y <= h for x, y in zip(cell.x_breaks[1:], cell.y_breaks))
    )


def _tiling_proves_depth(inst: CoveringInstance, result: DecompositionResult) -> bool:
    """Whether the cells prove that every window point has depth >= k: all
    are stair polygons, their indices are distinct triangles of `inst`,
    each lies in its own triangle, and they tile the window exactly k-fold."""
    if result.non_stair:
        return False
    seen = set()
    for i, cell in result.cells:
        if i in seen or not 0 <= i < inst.size or not _within_triangle(cell, inst.corners[i]):
            return False
        seen.add(i)
    return verify_exact_tiling(result.stair_cells(), inst.k, inst.window).passed


def is_k_fold_covering(inst: CoveringInstance) -> bool:
    return coverage_certificate(inst).covers


def multiplicity_grid(cells, l: Fraction):
    """Multiplicity of a stair-cell family on the grid of all its breaks.

    Returns (xs, ys, counts) where counts[i, j] is the number of cells
    covering the half-open grid cell [xs[i], xs[i+1]) x [ys[j], ys[j+1]).
    Cells must lie inside [0, l]^2.
    """
    xs = {Fraction(0), l}
    ys = {Fraction(0), l}
    rect_lists = []
    for cell in cells:
        rects = cell.to_rects()
        for r in rects:
            if r.x0 < 0 or r.x1 > l or r.y0 < 0 or r.y1 > l:
                raise ValueError(f"cell rectangle {r} extends outside the window")
            xs.update((r.x0, r.x1))
            ys.update((r.y0, r.y1))
        rect_lists.append(rects)
    xs = sorted(xs)
    ys = sorted(ys)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    diff = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for rects in rect_lists:
        for r in rects:
            diff[xi[r.x0], yi[r.y0]] += 1
            diff[xi[r.x1], yi[r.y0]] -= 1
            diff[xi[r.x0], yi[r.y1]] -= 1
            diff[xi[r.x1], yi[r.y1]] += 1
    counts = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    return xs, ys, counts


@dataclass(frozen=True)
class AuditVerdict:
    check: str
    status: str
    detail: str = ""
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _fail(check: str, detail: str, **witness) -> AuditVerdict:
    return AuditVerdict(check, FAIL, detail, witness or None)


def audit_cell_shape(result: DecompositionResult) -> AuditVerdict:
    """Every nonempty cell is a stair polygon, anchored at its corner when
    the corner lies inside the window."""
    check = "cell_shape"
    if result.non_stair:
        i, cell = result.non_stair[0]
        p = cell.diagonal_witness()
        return _fail(
            check,
            f"cell {i} keeps part of its hypotenuse (input is not a covering)",
            cell=i,
            point=_point_json(p),
        )
    inst = result.instance
    by_index = dict(result.cells)
    for i, corner in enumerate(inst.corners):
        if 0 <= corner.x < inst.window and 0 <= corner.y < inst.window:
            cell = by_index.get(i)
            if cell is None:
                return _fail(check, f"cell {i} is empty but its corner is in the window", cell=i)
            if cell.anchor != corner:
                return _fail(
                    check,
                    f"cell {i} is not anchored at its corner",
                    cell=i,
                    anchor=_point_json(cell.anchor),
                    corner=_point_json(corner),
                )
    return AuditVerdict(check, PASS, f"{len(result.cells)} stair cells")


def audit_minimal_element(inst: CoveringInstance) -> AuditVerdict:
    """The order-minimal triangle at each window point is cut by every other
    triangle containing the point.

    Distinct translates that share a point intersect, and the later corner
    cuts the earlier, so this fails only on equal corners whose triangle
    meets the window; the witness is that triangle's lowest window point.
    """
    check = "minimal_corner_cut"
    l = inst.window
    for i, j in sorted(repeated_corners(inst.corners)):
        c = inst.corners[i]
        p = Point(max(c.x, 0), max(c.y, 0))
        if p.x < l and p.y < l and Triangle(c).contains(p):
            return _fail(
                check,
                f"triangle {j} contains the point but does not cut minimal triangle {i}",
                point=_point_json(p),
                minimal=i,
                other=j,
            )
    return AuditVerdict(check, PASS, f"no two of {inst.size} corners coincide in the window")


def verify_exact_tiling(cells, k: int, l: Fraction) -> AuditVerdict:
    """Every window point must lie in exactly k of the given stair cells:
    the `exact_tiling` verdict of `audit_disjointness`."""
    return audit_disjointness(cells, k, l)[2]


def audit_disjointness(cells, k: int, l: Fraction):
    """Grid multiplicity verdicts from one grid: (upper, lower, exact_tiling).

    Upper: nowhere more than k cells. Lower: nowhere fewer than k. Exact
    tiling: exactly k everywhere. Each failing witness is the lower-left
    corner of the first grid cell off its bound in (x, y) order, with its
    multiplicity.
    """
    xs, ys, counts = multiplicity_grid(cells, l)

    def verdict(check, off, passed, failed):
        bad = np.argwhere(off)
        if len(bad) == 0:
            return AuditVerdict(check, PASS, passed)
        i, j = map(int, bad[0])
        m = int(counts[i, j])
        return _fail(check, failed(m), point=_point_json(Point(xs[i], ys[j])), multiplicity=m)

    return (
        verdict("multiplicity_upper", counts > k, f"max multiplicity <= {k}",
                lambda m: f"{m} cells share a point (limit {k})"),
        verdict("multiplicity_lower", counts < k, f"min multiplicity >= {k}",
                lambda m: f"a window point lies in only {m} cells (need {k})"),
        verdict("exact_tiling", counts != k, f"all grid cells have multiplicity {k}",
                lambda m: f"multiplicity {m} != {k}"),
    )


def _removed_boundary_hit(a: StairPolygon, b: StairPolygon) -> Point | None:
    """A point of (closure(A) \\ A) ∩ B, or None.

    The removed boundary of A is its closed staircase path: per column, the
    top edge, then the riser at the column's right end down to the next top
    (the last riser runs down to A's bottom). Each closed segment
    [x0, x1] x [y0, y1] is tested against B's half-open columns in order.
    """
    xs, ys = a.x_breaks, a.y_breaks
    bottom = b.y_breaks[-1]
    columns = tuple(zip(b.x_breaks, b.x_breaks[1:], b.y_breaks))
    for i in range(len(xs) - 1):
        top_edge = (xs[i], xs[i + 1], ys[i], ys[i])
        riser = (xs[i + 1], xs[i + 1], ys[i + 1], ys[i])
        for x0, x1, y0, y1 in (top_edge, riser):
            for u0, u1, top in columns:
                # closed [lo, hi] meets half-open [c0, c1) iff lo < c1 and hi >= c0
                if x0 < u1 and x1 >= u0 and y0 < top and y1 >= bottom:
                    return Point(max(x0, u0), max(y0, bottom))
    return None


def audit_boundary_cut(corners, indexed_cells):
    """Boundary/cell disjointness: (boundary_vs_cutter, boundary_one_sided).

    Directed: if T_i cuts T_j then the removed boundary of cell i misses
    cell j; it fails on the least (i, j) in index order. One-sided: for
    every pair at least one direction misses; it fails on the first pair
    i < j in the order of the entries. Only hits are stored. A pair whose
    closed bounding boxes are disjoint has no hit, since the removed
    boundary of a cell lies in its closed box, and is not searched. An
    index repeated in `indexed_cells` keeps the place of its first entry
    and is judged by its last.
    """
    directed_check = "boundary_vs_cutter"
    pairwise_check = "boundary_one_sided"
    cells = dict(indexed_cells)
    boxes = [
        (i, c, (c.x_breaks[0], c.x_breaks[-1], c.y_breaks[-1], c.y_breaks[0]))
        for i, c in cells.items()
    ]
    hits: dict[tuple[int, int], Point] = {}
    for i, a, (ax0, ax1, ay0, ay1) in boxes:
        for j, b, (bx0, bx1, by0, by1) in boxes:
            if i != j and ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                w = _removed_boundary_hit(a, b)
                if w is not None:
                    hits[(i, j)] = w
    directed = AuditVerdict(directed_check, PASS, "no cutter boundary meets a cut cell")
    for (i, j), w in sorted(hits.items()):
        if cuts(Triangle(corners[i]), Triangle(corners[j])):
            directed = _fail(
                directed_check,
                f"triangle {i} cuts triangle {j} but boundary of cell {i} meets cell {j}",
                cutter=i,
                cut=j,
                point=_point_json(w),
            )
            break
    pairwise = AuditVerdict(pairwise_check, PASS, "every pair is one-sided")
    for (i, j), w in hits.items():
        if i < j and (j, i) in hits:
            pairwise = _fail(
                pairwise_check,
                f"boundaries of cells {i} and {j} each meet the other cell",
                first=i,
                second=j,
                point=_point_json(w),
                point_reverse=_point_json(hits[(j, i)]),
            )
            break
    return directed, pairwise


def audit_inner_corners(indexed_cells) -> AuditVerdict:
    """Every inner corner of a cell lies in some other cell whose anchor
    shares the corner's x-coordinate."""
    check = "corner_anchor_column"
    corners_checked = 0
    for i, cell in indexed_cells:
        for corner in cell.inner_corners():
            corners_checked += 1
            found = any(
                j != i and other.contains(corner) and other.anchor.x == corner.x
                for j, other in indexed_cells
            )
            if not found:
                return _fail(
                    check,
                    f"inner corner of cell {i} is in no cell anchored at its x",
                    cell=i,
                    point=_point_json(corner),
                )
    return AuditVerdict(check, PASS, f"{corners_checked} inner corners checked")


def audit_corner_counts(indexed_cells, k: int):
    """Anchor-count inequalities over the nonempty cells.

    n_i counts the anchors of other cells lying in the interior or on the
    inner corners of cell i. Verifies n_i >= r_i - k + 1 per cell,
    sum(n_i) <= k * N' and sum(r_i) <= (2k - 1) * N'.
    """
    n_prime = len(indexed_cells)
    anchor_counts = {}
    for i, cell in indexed_cells:
        corner_set = set(cell.inner_corners())
        n_i = sum(
            1
            for j, other in indexed_cells
            if j != i
            and (cell.interior_contains(other.anchor) or other.anchor in corner_set)
        )
        anchor_counts[i] = n_i
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
        total = AuditVerdict(
            "stair_count_total", PASS, f"sum r_i = {total_stairs} <= {budget}"
        )
    else:
        total = _fail(
            "stair_count_total",
            f"sum r_i = {total_stairs} exceeds (2k-1)*N' = {budget}",
            total=total_stairs,
            limit=budget,
        )
    stats = {"anchor_counts": anchor_counts, "sum_anchor_counts": total_anchors}
    return lower, upper, total, stats


@dataclass(frozen=True)
class AuditReport:
    certificate: CoverageCertificate
    result: DecompositionResult
    verdicts: tuple[AuditVerdict, ...]
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.status == PASS for v in self.verdicts)

    def verdict(self, check: str) -> AuditVerdict:
        for v in self.verdicts:
            if v.check == check:
                return v
        raise KeyError(check)


_TILING_GATED = ("corner_anchor_column", "anchor_count_lower", "anchor_count_upper", "stair_count_total")


def run_audits(inst: CoveringInstance, result: DecompositionResult | None = None) -> AuditReport:
    """Full audit pipeline for one instance.

    Checks that need the cells to be stair polygons, or the tiling to be
    exact, are skipped (not failed) when their precondition already failed;
    the precondition's own verdict carries the witness.
    """
    if result is None:
        result = decompose(inst)
    cert = coverage_certificate(inst, result)
    verdicts = [audit_cell_shape(result), audit_minimal_element(inst)]
    stats = {
        "n_translates": inst.size,
        "n_nonempty": len(result.cells) + len(result.non_stair),
        "min_depth": cert.min_depth,
    }
    if result.is_stair_decomposition:
        upper, lower, tiling = audit_disjointness(result.stair_cells(), inst.k, inst.window)
        verdicts += [upper, lower, tiling]
        verdicts += list(audit_boundary_cut(inst.corners, result.cells))
        if tiling.passed:
            corner_verdict = audit_inner_corners(result.cells)
            c_lower, c_upper, c_total, count_stats = audit_corner_counts(
                result.cells, inst.k
            )
            verdicts += [corner_verdict, c_lower, c_upper, c_total]
            stats.update(count_stats)
        else:
            verdicts += [
                AuditVerdict(check, SKIP, "precondition failed: not an exact tiling")
                for check in _TILING_GATED
            ]
    else:
        # not a covering: the hypotenuse survived in some cell, so the cells
        # cannot tile; report the failure with a genuine multiplicity witness
        if cert.min_depth < inst.k:
            witness = {
                "point": _point_json(cert.witness),
                "multiplicity": cert.min_depth,
            }
            detail = f"coverage depth {cert.min_depth} < {inst.k} at witness"
        else:  # unreachable for correct decompositions; keep the report honest
            i, cell = result.non_stair[0]
            witness = {"point": _point_json(cell.diagonal_witness()), "cell": i}
            detail = f"cell {i} is not a stair polygon"
        verdicts.append(AuditVerdict("exact_tiling", FAIL, detail, witness))
        skipped = ("multiplicity_upper", "multiplicity_lower", "boundary_vs_cutter",
                   "boundary_one_sided") + _TILING_GATED
        verdicts += [
            AuditVerdict(check, SKIP, "precondition failed: cells are not all stair polygons")
            for check in skipped
        ]
    stats["sum_stair_counts"] = sum(c.stair_count for _, c in result.cells)
    stats["cells"] = [
        {"index": i, "stairs": c.stair_count, "area": rat_str(c.area())}
        for i, c in result.cells
    ]
    return AuditReport(
        certificate=cert, result=result, verdicts=tuple(verdicts), stats=stats
    )
