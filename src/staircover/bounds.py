"""The area formula for stair polygons inscribed in the canonical triangle,
A(r) = (r + 1) / (2 (r + 2)), and the chained area inequality that turns an
exact k-fold stair tiling of the window into the density bound
l^2 <= (N/k) * A(2k - 1).

The chain is summed in ints where it runs over the cells: the cells' int
areas on their scale squared (one sum per scale, and `decompose` puts every
cell on its frame's), and the per-cell bound as a sum over the stair counts
r of count(r) * A(r). Each link is the exact rational of the per-cell sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import DecompositionResult
from .rational import int_at_least, rat
from .verification import verify_exact_tiling

__all__ = [
    "max_stair_area",
    "stair_area_bound",
    "density_chain",
    "BoundReport",
    "ChainLink",
]


def max_stair_area(r: int) -> Fraction:
    """Largest area of a half-open r-stair polygon inside the triangle:
    (r + 1) / (2 (r + 2)). Strictly increasing in r, always below 1/2."""
    int_at_least(r, 0, "stair count must be a nonnegative integer")
    return stair_area_bound(r)


def stair_area_bound(x) -> Fraction:
    """Concave increasing extension of `max_stair_area` to rational x >= 0."""
    x = rat(x)
    if x < 0:
        raise ValueError("argument must be nonnegative")
    return (x + 1) / (2 * (x + 2))


@dataclass(frozen=True)
class ChainLink:
    label: str
    value: Fraction
    holds: bool  # value >= previous link's value


@dataclass(frozen=True)
class BoundReport:
    cells: tuple[tuple[int, int, Fraction], ...]  # (index, r_i, area)
    links: tuple[ChainLink, ...]  # empty when the chain does not apply
    detail: str = ""

    @property
    def valid(self) -> bool:
        return bool(self.links)

    @property
    def n_nonempty(self) -> int:
        return len(self.cells)

    @property
    def sum_stairs(self) -> int:
        return sum(r for _, r, _ in self.cells)

    @property
    def holds(self) -> bool:
        return self.valid and all(link.holds for link in self.links)


def density_chain(result: DecompositionResult) -> BoundReport:
    """Evaluate every link of the window-area bound chain exactly.

    window_area = sum |S_i| / k
                <= sum A(r_i) / k            (per-cell area bound)
                <= (N'/k) B(mean r)          (concavity of the bound)
                <= (N'/k) A(2k-1)            (stair-count budget)
                <= (N/k)  A(2k-1)
    where A is `max_stair_area` and B its rational extension. The chain
    needs stair cells that tile the window exactly k-fold. Both are checked
    here, the tiling by `verify_exact_tiling`; if either fails, the report
    is marked invalid and no link is asserted.
    """
    inst = result.instance
    k, l = inst.k, inst.window
    totals = {}  # scale -> the int areas of the cells on that scale, summed
    cells = []
    for i, c in result.cells:
        area = c.scaled_area()
        totals[c.scale] = totals.get(c.scale, 0) + area
        cells.append((i, c.stair_count, Fraction(area, c.scale * c.scale)))
    cells = tuple(cells)
    if not result.is_stair_decomposition:
        return BoundReport(cells, (), "cells are not all stair polygons")
    if not verify_exact_tiling(result.stair_cells(), k, l).passed:
        return BoundReport(cells, (), "cells do not tile the window exactly k-fold")
    n_prime = len(cells)
    stairs = {}  # stair count r -> the number of cells with r stairs
    for _, r, _ in cells:
        stairs[r] = stairs.get(r, 0) + 1
    sum_r = sum(r * n for r, n in stairs.items())
    window_area = l * l
    cell_total = sum(Fraction(a, s * s) for s, a in totals.items()) / k
    per_cell_bound = sum(n * max_stair_area(r) for r, n in stairs.items()) / k
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
    return BoundReport(cells, tuple(links))
