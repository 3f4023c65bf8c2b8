"""Lattice families of triangle translates: instance materialization, exact
covering multiplicity, and a search for the densest-possible k-fold lattice
covering.

Multiplicity of a lattice family is periodic, so its exact minimum over the
plane equals the minimum over any region containing a fundamental domain.
With a basis normalized to u = (a, 0), v = (b, c), a, c > 0, 0 <= b < a
(every rational lattice has exactly one: c is the gcd of the heights of its
vectors and a = det / c, see `hermite_basis`), the half-open box
[0, a+b) x [0, c) contains the fundamental parallelogram, and the window
depth engine gives the exact value. The translates meeting a window are
enumerated in ints on the normalized basis, row by row: the rows y = j*c,
and in each row the points x = i*a + j*b, both ranges cut exactly to the
triangles that meet the window. An instance holds those int pairs, sorted,
on the same denominator, so a lattice gives the same corners in any basis;
their number is bounded before the first row and capped at _MAX_TRANSLATES.

The search maximizes the determinant (equivalently minimizes the density
(1/2)/det) over normalized bases subject to "multiplicity >= k". Shrinking
a lattice uniformly never decreases multiplicity, and the triangles are
closed, so the feasible scales of a ray t * (1, beta, gamma) are exactly
(0, 1/s*], s* being the least triangle size at which the lattice
(1, 0), (beta, gamma) covers k-fold (`_critical_size`, exact, in ints).
Each feasibility check is therefore the one comparison t * s* <= 1, made
in ints (`_fits`) on the scale and s* as int pairs. s* is computed once
per shape (beta, gamma), and Sriamorn's bound is checked with it: no
k-fold lattice covering has density below (2k+1)/2. The same comparison,
on a lattice's own normalized basis, is the exact test `lattice_covers` of
a stored lattice; the exhaustive `lattice_multiplicity` is its oracle in
the tests and re-checks the search's result. Rays, warm-start shapes
first, are seeded from a ratio grid, bisected, refined along the
mirror-symmetric line b = c, then pattern-searched. A ray's probes and
bisection, its checks and the budget that counts them run on int pairs.
The only approximation anywhere is that the search may stop short of the
true optimum, which is reported as a gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import nlargest
from math import ceil, gcd, isqrt

from . import arrangement
from .decomposition import CoveringInstance
from .geom import Point, Rect, pt, scaled_point
from .rational import int_at_least, on_one_scale, rat, rat_str
from .verification import coverage_certificate

_MAX_ROWS = 1000
"""Most lattice rows `_critical_size` scans before it refuses the shape.

Its cost grows as rows^2 * k. The pinned searches (`optimize` at k = 1, 2
and 3 with the defaults, and k = 2 with --seed-grid 3) reach at most 143
rows; a warm start from a flat stored lattice has no such bound: the shape
(1/3 + 1/70000, 1/10000) needs 5,542 rows and took 9.1-9.4 s of CPU at
k = 1 (2 vCPUs, Python 3.11.7).
"""

_MAX_FOLD = 64
"""Largest fold k that `_critical_size` (so `optimize` and `lattice_covers`)
accepts. Its cost grows as rows * k: a default search took 1.9-2.4 s of
CPU at k = 64 and 23.5 s at k = 150, nearly all of it in `_critical_size`
(2 vCPUs, Python 3.11.7)."""

_MAX_TRANSLATES = 100_000  # about 90x the largest benchmark instance (1,083)

_PERTURB_TRIES = 64  # draws `perturb_instance` makes before it gives up

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

    The form is unique, and its entries are lattice invariants: c is the
    least positive height of a lattice vector (the gcd of the heights of u
    and v), a = det / c, and b is the x of any vector at height c, mod a.
    With those heights n1, n2 over a common denominator, g = gcd(n1, n2)
    and m_i = n_i / g, the vector m2*u - m1*v is (det / c, 0), and any
    Bezout pair alpha*m1 + beta*m2 = 1 gives alpha*u + beta*v at height c.
    """
    u, v = lat.u, lat.v
    den, (n1, n2) = on_one_scale((u.y, v.y))
    g = gcd(n1, n2)
    m1, m2 = n1 // g, n2 // g
    a = m2 * u.x - m1 * v.x  # = det * den / g > 0
    alpha = pow(m1, -1, abs(m2)) if m2 else m1
    beta = (1 - alpha * m1) // m2 if m2 else 0
    return a, (alpha * u.x + beta * v.x) % a, Fraction(g, den)


def _translates_meeting(a, b, c, wx, wy) -> tuple[int, list[tuple[int, int]]]:
    """(d, points): the points, as int pairs times d = the lcm of the five
    denominators, of the lattice with normalized basis (a, 0), (b, c) whose
    triangle meets the half-open window [0, wx) x [0, wy), row by row.

    The triangle at (x, y) meets the window exactly when x < wx, y < wy and
    max(x, 0) + max(y, 0) <= x + y + 1, that is y >= -1 and
    x >= -1 - min(y, 0). Rows y = j*c run over the y-range, and in each row
    the points x = i*a + j*b over the x-range."""
    d, (a, b, c, wx, wy) = on_one_scale((a, b, c, wx, wy))
    points = []
    for y in range(-(d // c) * c, wy, c):
        lo = -d - min(y, 0)
        points.extend((x, y) for x in range(lo + (y // c * b - lo) % a, wx, a))
    return d, points


def lattice_instance(lat: Lattice, l, k: int) -> CoveringInstance:
    """Materialize the finite sub-family relevant to the window [0, l)^2."""
    side = rat(l)
    if side <= 0:
        raise ValueError(f"l: window side must be positive, got {rat_str(side)}")
    a, b, c = hermite_basis(lat)
    # rows times the most points a row's x-range [-1 - min(y, 0), l) holds
    bound = (ceil(side / c) - ceil(-1 / c)) * ceil((side + 1) / a)
    if bound > _MAX_TRANSLATES:
        raise ValueError(f"l: the window meets up to {bound} translates of this "
                         f"lattice, more than {_MAX_TRANSLATES}")
    d, points = _translates_meeting(a, b, c, side, side)
    return CoveringInstance(k, side, d, sorted(points))  # the order reaches instance files


def _multiplicity_window(lat: Lattice) -> tuple[Rect, list[Point]]:
    a, b, c = hermite_basis(lat)
    d, points = _translates_meeting(a, b, c, a + b, c)
    return Rect(Fraction(0), a + b, Fraction(0), c), [scaled_point(x, y, d) for x, y in points]


def lattice_multiplicity(lat: Lattice) -> int:
    """Exact minimum coverage depth of the plane by {T + lam : lam in lattice}."""
    window, corners = _multiplicity_window(lat)
    depth, _ = arrangement.min_depth(corners, window)
    return depth


def lattice_covers(lat: Lattice, k: int) -> bool:
    """Whether the lattice family is a k-fold covering, exactly: with the
    normalized basis (a, 0), (b, c), the lattice is a times the one with
    basis (1, 0), (b/a, c/a), so it covers k-fold when a * s* <= 1, the
    search's feasibility test. Raises ValueError where `_critical_size`
    refuses the shape or fold."""
    a, b, c = hermite_basis(lat)
    s = _critical_size((b / a, c / a), k)
    return _fits(a.numerator, a.denominator, s.numerator, s.denominator)


def _critical_size(shape: tuple[Fraction, Fraction], k: int) -> Fraction:
    """The least triangle size s* at which the lattice with basis (1, 0),
    (beta, gamma), gamma > 0, covers the plane k-fold; so the lattice with
    basis (t, 0), (t*beta, t*gamma) is a k-fold covering exactly when
    t * s* <= 1.

    Works in ints on the shape's own frame: times the lcm of the
    denominators of beta and gamma, the basis is (a, 0), (b, c). A point p
    lies in the closed triangle of size s at lam exactly when lam <= p in
    both coordinates and (p.x + p.y) - (lam.x + lam.y) <= s, so p is covered
    k-fold exactly when s >= p.x + p.y - S_k(p), S_k(p) being the k-th
    largest lam.x + lam.y over the lattice points lam <= p. By periodicity
    p can be taken in [0, a) x [0, c). Row j <= 0 (y = j*c) then holds the
    points x_j - m*a, m >= 0, below p, x_j being the largest x = j*b mod a
    with x <= p.x; only m < k can be among the k largest. So S_k is constant
    on each cell [x, x') x [0, c) between consecutive cuts j*b mod a, and
    s* is the largest x' + c - S_k over the cells: the supremum at the
    cell's open upper-right corner.

    Given a bound u, a row with j*c <= c - u has every sum at most
    x' - 1 + j*c, below x' + c - u, so it can neither cut a cell nor lift
    S_k to that level: the cells and S_k of the rows j*c > c - u alone give
    s* exactly when every cell comes out at most u, and otherwise s* > u.
    So u doubles until the cells fit; the scan for a bound stops at its
    first cell above u, which already proves s* > u. Any start gives the
    same s*, and isqrt((2k+1)*a*c) is at most s*, as no k-fold lattice
    covering has density below (2k+1)/2 (Sriamorn).
    """
    if k > _MAX_FOLD:
        raise ValueError(f"fold must be at most {_MAX_FOLD}, got {k}")
    a, (b, c) = on_one_scale(shape)
    u = isqrt((2 * k + 1) * a * c)
    while True:
        rows = range(0, -((u - 1) // c), -1)  # the rows j*c > c - u
        if len(rows) > _MAX_ROWS:
            raise ValueError(
                f"lattice too flat: its critical size needs more than {_MAX_ROWS} rows"
            )
        cuts = sorted({j * b % a for j in rows})
        worst = 0
        for x, right in zip(cuts, cuts[1:] + [a]):
            sums = (x - (x - j * b) % a + j * c - m * a for j in rows for m in range(k))
            worst = max(worst, right + c - nlargest(k, sums)[-1])
            if worst > u:
                break
        if cuts and worst <= u:
            return Fraction(worst, a)
        u *= 2


def _fits(p: int, q: int, n: int, d: int) -> bool:
    """The feasibility test t * s* <= 1 of the scale t = p/q on a ray of
    critical size s* = n/d, cross-multiplied (q, d > 0)."""
    return p * n <= q * d


@dataclass(frozen=True)
class LatticeSearchReport:
    k: int
    lattice: Lattice | None  # None when the budget ran out before any was found
    multiplicity: int
    evaluations: int
    budget: int

    @property
    def feasible(self) -> bool:
        return self.lattice is not None

    @property
    def density(self) -> Fraction | None:
        return self.lattice.density if self.feasible else None

    @property
    def target_density(self) -> Fraction:
        return Fraction(2 * self.k + 1, 2)

    @property
    def message(self) -> str:
        return "search complete" if self.feasible else "infeasible within budget"

    @property
    def gap(self) -> Fraction | None:
        return self.density - self.target_density if self.feasible else None


def _guard_density(k: int, density: Fraction):
    # (2k+1)/2 is optimal; a lattice below it at its critical size means the
    # exact verifier itself is broken, which must never pass silently
    if density < Fraction(2 * k + 1, 2):
        raise AssertionError(
            f"verified k={k} lattice with density {density} beats the optimum; "
            "exact verifier bug"
        )


def _lowest(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms, q > 0: the int pair a Fraction would hold."""
    g = gcd(p, q)
    return p // g, q // g


def _sqrt_below(n: int, d: int) -> tuple[int, int]:
    """The scale at most sqrt(n/d), n, d > 0, in lowest terms: with n/d in
    lowest terms, isqrt(n*d) / d."""
    n, d = _lowest(n, d)
    return _lowest(isqrt(n * d), d)


_PROBE_FRACS = (  # the fractions f of the probes det = f * target, as int pairs
    (1, 1), (99, 100), (19, 20), (9, 10), (4, 5), (13, 20), (1, 2), (7, 20), (1, 5), (1, 10),
)


def search_optimal_lattice(
    k: int,
    budget: int = 6000,
    seed_grid: int = 6,
    warm_starts: tuple[Lattice, ...] = (),
) -> LatticeSearchReport:
    """Search normalized bases u = (a, 0), v = (b, c) for the
    largest-determinant k-fold covering lattice.

    Along a ray t * (1, beta, gamma) the feasible scales are exactly
    (0, 1/s*], s* = `_critical_size((beta, gamma), k)` (see the module
    docstring), so a feasibility check is the exact test t * s* <= 1. The
    search scans a grid of shapes (beta, gamma) = (b/a, c/a), after the
    shapes of the `warm_starts` lattices, bisects each ray, then refines the
    best shape by pattern search with step halving, bisecting every
    candidate ray; a ray's result is the record (det, t, shape),
    det = t^2 * gamma. Sriamorn's bound is checked once per shape, at its
    densest feasible scale t = 1/s*: a density s*^2 / (2 gamma) below
    (2k+1)/2 raises AssertionError, and so does a multiplicity below k when
    the exhaustive `lattice_multiplicity` re-checks the lattice found.

    Within a ray every scale is an int pair p/q in lowest terms and a check
    is the one int comparison p * n <= q * d with s* = n/d; the budget set
    holds each check as the shape's and the scale's int pairs. Fractions
    are made per ray (its shape and its record) and per shape (s* and the
    density guard) only.

    Deterministic throughout: fixed scan orders, exact arithmetic, exact
    feasibility verdicts. `budget` caps the number of distinct feasibility
    checks (the report's `evaluations`); if it runs out before any feasible
    lattice is seen the report says so. A fold above _MAX_FOLD raises
    ValueError at the first check.
    """
    int_at_least(k, 1, "fold must be a positive integer")
    int_at_least(budget, 1, "budget must be at least 1")
    int_at_least(seed_grid, 1, "seed grid must be at least 1")
    seen: set[tuple[int, ...]] = set()  # the checks made
    sizes: dict[tuple[int, ...], tuple[int, int]] = {}  # s* = n/d of each shape checked

    def feasible(key, shape, p, q) -> bool | None:
        """Exact verdict on the scale p/q, or None once the budget is exhausted."""
        check = key + (p, q)
        if check not in seen:
            if len(seen) >= budget:
                return None
            seen.add(check)
        if key not in sizes:
            s = _critical_size(shape, k)
            _guard_density(k, s * s / (2 * shape[1]))  # the ray's least density
            sizes[key] = s.numerator, s.denominator
        return _fits(p, q, *sizes[key])

    def ray_best(shape, precision: Fraction):
        """Record (det, t, shape) of the ray's largest feasible scale, or None.

        Probes det = f * target for descending fractions f, then bisects the
        scale between the first feasible probe and a just-infeasible upper
        scale until the relative det window is below `precision`.
        """
        beta, gamma = shape
        key = (beta.numerator, beta.denominator, gamma.numerator, gamma.denominator)
        # the probe at f = fn/fd: t^2 = f * target / gamma = (fn * num) / (fd * den)
        num, den = gamma.denominator, (2 * k + 1) * gamma.numerator
        for fn, fd in _PROBE_FRACS:
            lo, lo_q = _sqrt_below(fn * num, fd * den)
            verdict = feasible(key, shape, lo, lo_q)
            if verdict is None:
                return None
            if verdict:
                break
        else:
            return None
        # strictly above the optimal scale, 21/20 * sqrt_below(target / gamma)
        # + 1/10^6; verified infeasible or guarded
        p, q = _sqrt_below(num, den)
        hi, hi_q = _lowest(21 * 10**6 * p + 20 * q, 20 * 10**6 * q)
        pn, pd = precision.numerator, precision.denominator
        # (t_hi - t_lo) > precision * t_lo, cross-multiplied
        while (hi * lo_q - lo * hi_q) * pd > pn * lo * hi_q and len(seen) < budget:
            mid, mid_q = _lowest(lo * hi_q + hi * lo_q, 2 * lo_q * hi_q)
            if feasible(key, shape, mid, mid_q):  # never None: len(seen) < budget
                lo, lo_q = mid, mid_q
            else:
                hi, hi_q = mid, mid_q
        t = Fraction(lo, lo_q)
        return (t * t * gamma, t, shape)

    def seed_shapes():
        """The warm starts' shapes, then the ratio grid's, made as the rays
        reach them: the budget may stop the scan long before the grid ends."""
        for a, b, c in map(hermite_basis, warm_starts):
            yield b / a, c / a
        for i in range(seed_grid):
            for j in range(1, seed_grid + 1):
                yield Fraction(i, seed_grid), Fraction(j, seed_grid)

    # phase 1: coarse rays over the ratio grid, warm starts first
    g = Fraction(1, seed_grid)
    coarse = Fraction(1, 64)
    best = best_diag = None
    for shape in seed_shapes():
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

    # phase 2: zoom scan along the mirror-symmetric line b = c (the triangle
    # is symmetric under swapping x and y, so this line is a canonical home
    # for optima); catches sharp ridges that local 2D moves walk past
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

    # phase 3: 2D pattern search on the shape ratios from the best seen
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
    # final polish along the best ray at full precision
    rec = ray_best(best[2], Fraction(1, 1 << 12))
    if rec is not None and rec[0] > best[0]:
        best = rec

    _, t, (beta, gamma) = best
    lat = Lattice(Point(t, Fraction(0)), Point(t * beta, t * gamma))
    multiplicity = lattice_multiplicity(lat)
    if multiplicity < k:  # the depth engine must agree with the critical size
        raise AssertionError(
            f"k={k} lattice {lat} passed the critical size but has "
            f"multiplicity {multiplicity}; exact verifier bug"
        )
    return LatticeSearchReport(k, lat, multiplicity, len(seen), budget)


def perturb_instance(inst: CoveringInstance, magnitude, seed: int) -> CoveringInstance:
    """Randomly shift every translate by up to *magnitude* in each coordinate,
    in steps of magnitude/64 on one integer scale, keeping only verified
    k-fold coverings with distinct corners. At most _PERTURB_TRIES
    rejection-sampled draws; deterministic for a fixed seed."""
    mag = rat(magnitude)
    if mag < 0:
        raise ValueError("magnitude must be nonnegative")
    if mag == 0:
        return inst
    rng = random.Random(seed)
    den = 64  # perturbations live on a fixed rational grid
    # the corners (ints on inst.den) and the step mag / den on one scale
    scale, (step, up) = on_one_scale((mag / den, Fraction(1, inst.den)))
    corners = [(x * up, y * up) for x, y in inst.points]
    for _ in range(_PERTURB_TRIES):
        used: dict[tuple[int, int], None] = {}  # insertion-ordered: the order reaches files
        for x, y in corners:
            for _ in range(16):  # re-draw collisions so normality survives
                cand = (x + step * rng.randint(-den, den), y + step * rng.randint(-den, den))
                if cand not in used:
                    used[cand] = None
                    break
            else:
                break
        if len(used) < inst.size:  # some corner found no free spot
            continue
        candidate = CoveringInstance(inst.k, inst.window, scale, tuple(used))
        if coverage_certificate(candidate).covers:
            return candidate
    raise ValueError(
        f"no covering-preserving perturbation of magnitude {mag} found "
        f"in {_PERTURB_TRIES} attempts"
    )
