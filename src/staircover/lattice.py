"""Lattice families of triangle translates: instance materialization, exact
covering multiplicity, and a search for the densest-possible k-fold lattice
covering.

Multiplicity of a lattice family is periodic, so its exact minimum over the
plane equals the minimum over any region containing a fundamental domain.
With a basis normalized to u = (a, 0), v = (b, c), a, c > 0, 0 <= b < a
(every rational lattice has one), the half-open box [0, a+b) x [0, c)
contains the fundamental parallelogram, and the window depth engine gives
the exact value. The translates meeting a window are enumerated on the
normalized basis, row by row: the rows y = j*c, and in each row the points
x = i*a + j*b, both ranges cut exactly to the triangles that meet the
window. Instances use the same enumeration, so a lattice gives the same
sorted corners in any basis.

The search maximizes the determinant (equivalently minimizes the density
(1/2)/det) over normalized bases subject to the exact feasibility oracle
"multiplicity >= k". It leans on one rigorous fact: shrinking a lattice
uniformly never decreases multiplicity, so the maximal feasible scale along
any basis ray can be bisected exactly; rays are seeded from a ratio grid,
refined along the mirror-symmetric line b = c, then pattern-searched. Every
accepted lattice is exactly verified; the only approximation anywhere is
that the search may stop short of the true optimum, which is reported as a
gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm

from . import arrangement
from .decomposition import CoveringInstance
from .geom import Point, Rect, pt
from .rational import rat
from .verification import is_k_fold_covering

__all__ = [
    "Lattice",
    "hermite_basis",
    "lattice_instance",
    "lattice_multiplicity",
    "lattice_covers",
    "search_optimal_lattice",
    "LatticeSearchReport",
    "perturb_instance",
]


@dataclass(frozen=True)
class Lattice:
    """2D lattice spanned by basis vectors u and v, with positive determinant."""

    u: Point
    v: Point

    def __post_init__(self):
        if self.det <= 0:
            raise ValueError("lattice basis must have positive determinant")

    @classmethod
    def of(cls, ux, uy, vx, vy) -> "Lattice":
        return cls(pt(ux, uy), pt(vx, vy))

    @property
    def det(self) -> Fraction:
        return self.u.x * self.v.y - self.u.y * self.v.x

    @property
    def density(self) -> Fraction:
        """Covering density of the triangle family over this lattice: |T|/det."""
        return Fraction(1, 2) / self.det


def hermite_basis(lat: Lattice) -> tuple[Fraction, Fraction, Fraction]:
    """Normalize to u' = (a, 0), v' = (b, c) with a, c > 0 and 0 <= b < a.

    A rational lattice always contains horizontal vectors; (a, 0) is the
    primitive one, (b, c) any completion reduced mod a.
    """
    u, v = lat.u, lat.v
    den = lcm(u.y.denominator, v.y.denominator)
    n1 = int(u.y * den)
    n2 = int(v.y * den)
    g = gcd(n1, n2)
    if g == 0:
        raise ValueError("degenerate lattice")  # unreachable: det > 0
    m, j = n2 // g, -n1 // g
    h_x = m * u.x + j * v.x
    if h_x < 0:
        m, j, h_x = -m, -j, -h_x
    # complete (m, j) to a unimodular pair: m*beta - j*alpha = 1
    s, t = _ext_gcd(m, j)
    alpha, beta = -t, s
    w_x = alpha * u.x + beta * v.x
    w_y = alpha * u.y + beta * v.y
    if w_y < 0:
        alpha, beta, w_x, w_y = -alpha, -beta, -w_x, -w_y
    b = w_x - floor(w_x / h_x) * h_x
    return h_x, b, w_y


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(s, t) with a*s + b*t = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _translates_meeting(a, b, c, window: Rect) -> list[Point]:
    """All points of the lattice with normalized basis (a, 0), (b, c) whose
    triangle meets the half-open window [0, wx) x [0, wy), sorted by (x, y).

    The triangle at (x, y) meets the window exactly when x < wx, y < wy and
    max(x, 0) + max(y, 0) <= x + y + 1, that is y >= -1 and
    x >= -1 - min(y, 0). Rows y = j*c run over the y-range, and in each row
    the points x = i*a + j*b over the x-range.
    """
    out = []
    for j in range(ceil(-1 / c), ceil(window.y1 / c)):
        y, shift = j * c, j * b
        lo = -1 - min(y, 0)
        for i in range(ceil((lo - shift) / a), ceil((window.x1 - shift) / a)):
            out.append(Point(i * a + shift, y))
    out.sort(key=lambda p: (p.x, p.y))
    return out


def lattice_instance(lat: Lattice, l, k: int) -> CoveringInstance:
    """Materialize the finite sub-family relevant to the window [0, l)^2."""
    side = rat(l)
    if side <= 0:
        raise ValueError("window side must be positive")
    window = Rect(Fraction(0), side, Fraction(0), side)
    corners = _translates_meeting(*hermite_basis(lat), window)
    return CoveringInstance(k=k, window=side, corners=tuple(corners))


def _multiplicity_window(lat: Lattice) -> tuple[Rect, list[Point]]:
    a, b, c = hermite_basis(lat)
    window = Rect(Fraction(0), a + b, Fraction(0), c)
    return window, _translates_meeting(a, b, c, window)


def lattice_multiplicity(lat: Lattice) -> int:
    """Exact minimum coverage depth of the plane by {T + lam : lam in lattice}."""
    window, corners = _multiplicity_window(lat)
    depth, _ = arrangement.min_depth(corners, window)
    return depth


def lattice_covers(lat: Lattice, k: int) -> bool:
    """Whether the lattice family is a k-fold covering (early-exit check)."""
    window, corners = _multiplicity_window(lat)
    depth, _ = arrangement.min_depth(corners, window, early_below=k)
    return depth >= k


@dataclass(frozen=True)
class LatticeSearchReport:
    k: int
    feasible: bool
    lattice: Lattice | None
    multiplicity: int
    density: Fraction | None
    target_density: Fraction
    evaluations: int
    budget: int
    message: str

    @property
    def gap(self) -> Fraction | None:
        if self.density is None:
            return None
        return self.density - self.target_density


_GUARD = Fraction(1, 10**9)


def _guard_density(k: int, density: Fraction):
    # (2k+1)/2 is optimal; a verified-feasible lattice below it means the
    # exact verifier itself is broken, which must never pass silently
    if density < Fraction(2 * k + 1, 2) - _GUARD:
        raise AssertionError(
            f"verified k={k} lattice with density {density} beats the optimum; "
            "exact verifier bug"
        )


def _sqrt_below(x: Fraction) -> Fraction:
    """A rational at most sqrt(x)."""
    return Fraction(isqrt(x.numerator * x.denominator), x.denominator)


_PROBE_FRACS = (
    Fraction(1),
    Fraction(99, 100),
    Fraction(19, 20),
    Fraction(9, 10),
    Fraction(4, 5),
    Fraction(13, 20),
    Fraction(1, 2),
    Fraction(7, 20),
    Fraction(1, 5),
    Fraction(1, 10),
)


def search_optimal_lattice(
    k: int,
    budget: int = 6000,
    seed_grid: int = 6,
    warm_starts: tuple[tuple[Fraction, Fraction, Fraction], ...] = (),
) -> LatticeSearchReport:
    """Search normalized bases u = (a, 0), v = (b, c) for the
    largest-determinant k-fold covering lattice.

    Key structure: shrinking a lattice uniformly never decreases its covering
    multiplicity (equivalently, the triangle grows relative to the lattice),
    so along any ray t * (a, b, c) the feasible scales form an interval and
    the maximal scale can be bisected rigorously. The search scans a grid of
    shape ratios (b/a, c/a), bisects each ray, then refines the best shape by
    pattern search with step halving, bisecting every candidate ray.

    Deterministic throughout: fixed scan orders, exact arithmetic, exact
    feasibility verdicts. `budget` caps the number of feasibility
    evaluations; if it runs out before any feasible lattice is seen the
    report says so explicitly.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"fold must be a positive integer, got {k!r}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    target_density = Fraction(2 * k + 1, 2)
    target_det = Fraction(1, 2 * k + 1)
    evaluations = 0
    seen: dict[tuple[Fraction, Fraction, Fraction], bool] = {}

    def feasible(cand) -> bool | None:
        """Exact verdict, or None once the budget is exhausted."""
        nonlocal evaluations
        if cand in seen:
            return seen[cand]
        if evaluations >= budget:
            return None
        evaluations += 1
        a, b, c = cand
        lat = Lattice(Point(a, Fraction(0)), Point(b, c))
        ok = lattice_covers(lat, k)
        if ok:
            _guard_density(k, lat.density)
        seen[cand] = ok
        return ok

    def scaled(shape, t):
        beta, gamma = shape
        return (t, t * beta, t * gamma)

    def ray_best(shape, precision: Fraction):
        """Largest verified-feasible point on the ray, or None.

        Probes det = f * target for descending fractions f, then bisects the
        scale between the first feasible probe and a just-infeasible upper
        scale until the relative det window is below `precision`.
        """
        beta, gamma = shape
        t_lo = None
        for f in _PROBE_FRACS:
            t = _sqrt_below(f * target_det / gamma)
            if t <= 0:
                continue
            verdict = feasible(scaled(shape, t))
            if verdict is None:
                return None if t_lo is None else scaled(shape, t_lo)
            if verdict:
                t_lo = t
                break
        if t_lo is None:
            return None
        t_hi = Fraction(21, 20) * _sqrt_below(target_det / gamma) + Fraction(
            1, 10**6
        )  # strictly above the optimal scale; verified infeasible or guarded
        while (t_hi - t_lo) > precision * t_lo and evaluations < budget:
            mid = (t_lo + t_hi) / 2
            verdict = feasible(scaled(shape, mid))
            if verdict is None:
                break
            if verdict:
                t_lo = mid
            else:
                t_hi = mid
        return scaled(shape, t_lo)

    def det(cand) -> Fraction:
        return cand[0] * cand[2]

    # phase 1: coarse rays over the ratio grid, warm starts first
    g = Fraction(1, seed_grid)
    shapes = []
    for a, b, c in warm_starts:
        shapes.append((b / a, c / a))
    for i in range(0, seed_grid):
        for j in range(1, seed_grid + 1):
            shapes.append((Fraction(i, seed_grid), Fraction(j, seed_grid)))
    coarse = Fraction(1, 64)
    best = None
    best_diag = None
    for shape in shapes:
        cand = ray_best(shape, coarse)
        if cand is not None:
            if best is None or det(cand) > det(best):
                best, best_shape = cand, shape
            if shape[0] == shape[1] and (
                best_diag is None or det(cand) > det(best_diag)
            ):
                best_diag, best_diag_shape = cand, shape
        if evaluations >= budget:
            break

    if best is None:
        return LatticeSearchReport(
            k=k,
            feasible=False,
            lattice=None,
            multiplicity=0,
            density=None,
            target_density=target_density,
            evaluations=evaluations,
            budget=budget,
            message="infeasible within budget",
        )

    # phase 2: zoom scan along the mirror-symmetric line b = c (the triangle
    # is symmetric under swapping x and y, so this line is a canonical home
    # for optima); catches sharp ridges that local 2D moves walk past
    if best_diag is not None:
        center = best_diag_shape[1]
        width = 2 * g
        for level in range(6):
            lo = max(center - width / 2, width / 64)
            samples = [lo + Fraction(i, 16) * width for i in range(17)]
            level_best = None
            for gamma in samples:
                if not (0 < gamma <= 2):
                    continue
                cand = ray_best((gamma, gamma), Fraction(1, 256 << level))
                if cand is not None and (
                    level_best is None or det(cand) > det(level_best)
                ):
                    level_best, level_gamma = cand, gamma
                if evaluations >= budget:
                    break
            if level_best is None or evaluations >= budget:
                break
            center = level_gamma
            width = width / 4
            if det(level_best) > det(best):
                best, best_shape = level_best, (level_gamma, level_gamma)

    # phase 3: 2D pattern search on the shape ratios from the best seen
    step = g / 2
    min_step = g / (1 << 12)
    while evaluations < budget and step >= min_step:
        precision = min(coarse, step / 4)
        improved = None
        improved_shape = None
        beta, gamma = best_shape
        for db, dc in (
            (step, 0), (-step, 0), (0, step), (0, -step),
            (step, step), (-step, step), (step, -step), (-step, -step),
        ):
            shape = (beta + db, gamma + dc)
            if not (0 <= shape[0] < 1 and 0 < shape[1] <= 2):
                continue
            cand = ray_best(shape, precision)
            if cand is not None and det(cand) > det(best) and (
                improved is None or (det(cand), cand) > (det(improved), improved)
            ):
                improved, improved_shape = cand, shape
        if improved is not None and det(improved) > det(best):
            best, best_shape = improved, improved_shape
        else:
            step = step / 2
    # final polish along the best ray at full precision
    cand = ray_best(best_shape, Fraction(1, 1 << 12))
    if cand is not None and det(cand) > det(best):
        best = cand

    a, b, c = best
    lat = Lattice(Point(a, Fraction(0)), Point(b, c))
    multiplicity = lattice_multiplicity(lat)
    return LatticeSearchReport(
        k=k,
        feasible=True,
        lattice=lat,
        multiplicity=multiplicity,
        density=lat.density,
        target_density=target_density,
        evaluations=evaluations,
        budget=budget,
        message="search complete",
    )


def perturb_instance(
    inst: CoveringInstance, magnitude, seed: int, max_tries: int = 64
) -> CoveringInstance:
    """Randomly shift every translate by up to *magnitude* in each coordinate,
    keeping only results that are still verified k-fold coverings with
    distinct corners. Rejection-sampled; deterministic for a fixed seed.
    """
    mag = rat(magnitude)
    if mag < 0:
        raise ValueError("magnitude must be nonnegative")
    if mag == 0:
        return inst
    rng = random.Random(seed)
    den = 64  # perturbations live on a fixed rational grid
    for _ in range(max_tries):
        used: set[Point] = set()
        corners: list[Point] = []
        feasible_draw = True
        for c in inst.corners:
            for _ in range(16):  # re-draw collisions so normality survives
                cand = Point(
                    c.x + mag * Fraction(rng.randint(-den, den), den),
                    c.y + mag * Fraction(rng.randint(-den, den), den),
                )
                if cand not in used:
                    used.add(cand)
                    corners.append(cand)
                    break
            else:
                feasible_draw = False
                break
        if not feasible_draw:
            continue
        candidate = CoveringInstance(inst.k, inst.window, tuple(corners))
        if is_k_fold_covering(candidate):
            return candidate
    raise ValueError(
        f"no covering-preserving perturbation of magnitude {mag} found "
        f"in {max_tries} attempts"
    )
