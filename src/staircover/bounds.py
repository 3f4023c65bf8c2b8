"""Area bounds for stair polygons inscribed in the canonical triangle, and
the chained area inequality that turns an exact k-fold stair tiling of the
window into the density bound l^2 <= (N/k) * max_stair_area(2k - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .decomposition import DecompositionResult
from .geom import StairPolygon
from .rational import rat

__all__ = [
    "max_stair_area",
    "stair_area_bound",
    "optimal_covering_density",
    "max_stair_in_triangle",
    "grid_max_stair_area",
    "density_chain",
    "BoundReport",
    "ChainLink",
]


def max_stair_area(r: int) -> Fraction:
    """Largest area of a half-open r-stair polygon inside the triangle:
    (r + 1) / (2 (r + 2)). Strictly increasing in r, always below 1/2."""
    if not (isinstance(r, int) and r >= 0):
        raise ValueError(f"stair count must be a nonnegative integer, got {r!r}")
    return Fraction(r + 1, 2 * (r + 2))


def stair_area_bound(x) -> Fraction:
    """Concave increasing extension of `max_stair_area` to rational x >= 0."""
    x = rat(x)
    if x < 0:
        raise ValueError("argument must be nonnegative")
    return (x + 1) / (2 * (x + 2))


def optimal_covering_density(k: int) -> Fraction:
    """Optimal k-fold lattice covering density (2k + 1) / 2.

    Cross-checked against the equivalent form k * |T| / max_stair_area(2k-1)
    with |T| = 1/2; the two must agree exactly.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"fold must be a positive integer, got {k!r}")
    closed_form = Fraction(2 * k + 1, 2)
    via_area = k * Fraction(1, 2) / max_stair_area(2 * k - 1)
    if closed_form != via_area:
        raise AssertionError("density formulas disagree; arithmetic bug")
    return closed_form


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
    if not (isinstance(r, int) and r >= 0):
        raise ValueError(f"stair count must be a nonnegative integer, got {r!r}")
    if grid < r + 2:
        raise ValueError("grid too coarse to place r+2 distinct breaks")
    g = grid
    NEG = float("-inf")
    # best[x] = max area (scaled by g^2) of j columns ending at break x
    best = [0] * (g + 1)  # zero columns: free choice of first break
    for _ in range(r + 1):
        nxt = [NEG] * (g + 1)
        for x1 in range(1, g + 1):
            height = g - x1  # top of the column ending at x1, with base 0
            if height < 1:
                continue  # top must stay strictly above the base
            cand = max(
                (best[x0] + (x1 - x0) * height for x0 in range(x1) if best[x0] != NEG),
                default=NEG,
            )
            nxt[x1] = cand
        best = nxt
    peak = max(best)
    if peak == NEG:
        raise ValueError("no stair polygon fits")
    return Fraction(int(peak), g * g)


@dataclass(frozen=True)
class ChainLink:
    label: str
    value: Fraction
    holds: bool  # value >= previous link's value


@dataclass(frozen=True)
class BoundReport:
    valid: bool
    k: int
    window: Fraction
    n_translates: int
    n_nonempty: int
    sum_stairs: int
    cells: tuple[tuple[int, int, Fraction], ...]  # (index, r_i, area)
    links: tuple[ChainLink, ...]
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.valid and all(link.holds for link in self.links)


def density_chain(result: DecompositionResult, tiling_ok: bool) -> BoundReport:
    """Evaluate every link of the window-area bound chain exactly.

    window_area = sum |S_i| / k
                <= sum A(r_i) / k            (per-cell area bound)
                <= (N'/k) B(mean r)          (concavity of the bound)
                <= (N'/k) A(2k-1)            (stair-count budget)
                <= (N/k)  A(2k-1)
    where A is `max_stair_area` and B its rational extension. Requires the
    cells to form an exact k-fold tiling; otherwise the report is marked
    invalid and no link is asserted.
    """
    inst = result.instance
    k, l = inst.k, inst.window
    cells = [(i, c.stair_count, c.area()) for i, c in result.cells]
    base = BoundReport(
        valid=False,
        k=k,
        window=l,
        n_translates=inst.size,
        n_nonempty=len(cells),
        sum_stairs=sum(r for _, r, _ in cells),
        cells=tuple(cells),
        links=(),
    )
    if not result.is_stair_decomposition:
        return replace(base, detail="cells are not all stair polygons")
    if not tiling_ok:
        return replace(base, detail="cells do not tile the window exactly k-fold")
    if not cells:
        return replace(base, detail="no nonempty cells")
    n_prime = len(cells)
    sum_r = base.sum_stairs
    window_area = l * l
    cell_total = sum(a for _, _, a in cells) / k
    per_cell_bound = sum(max_stair_area(r) for _, r, _ in cells) / k
    jensen = Fraction(n_prime, k) * stair_area_bound(Fraction(sum_r, n_prime))
    budget = Fraction(n_prime, k) * max_stair_area(2 * k - 1)
    instance_total = Fraction(inst.size, k) * max_stair_area(2 * k - 1)
    links = [ChainLink("window_area", window_area, True)]
    links.append(ChainLink("cell_area_total", cell_total, cell_total == window_area))
    prev = cell_total
    for label, value in (
        ("per_cell_bound", per_cell_bound),
        ("jensen_bound", jensen),
        ("stair_budget_bound", budget),
        ("instance_bound", instance_total),
    ):
        links.append(ChainLink(label, value, value >= prev))
        prev = value
    return replace(base, valid=True, links=tuple(links))
