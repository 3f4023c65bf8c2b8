"""Exact coverage-depth queries over a half-open rectangular window.

Every boundary in play is a line of one of three families: x = c, y = c or
x + y = c (triangle legs, hypotenuses and window edges). Membership of each
closed triangle translate is therefore constant on every face (vertex, open
edge, open 2-cell) of the arrangement of those lines, so exact depth
statistics over a window reduce to evaluating the depth at one rational
sample point per face.

Sampling scheme: collect all vertex x-coordinates of the arrangement, sweep
one vertical line through every such coordinate and through every midpoint
between consecutive ones, and on each sweep line take every crossing with an
arrangement line plus every midpoint between consecutive crossings. Each
vertex, each edge and each 2-cell of the window-restricted arrangement
receives at least one sample point this way.

All arithmetic is integer, on a `Frame`: the corners and the window
scaled once by four times the lcm of every corner and window denominator
(which keeps both levels of midpoints exact), in numpy int64 arrays when
magnitudes allow or object (bignum) arrays otherwise; the rest of the
module runs the same code on either. `Frame.of_int_pairs` alone picks the
scale and the dtype, from (numerator, denominator) pairs: `Frame.of` hands
it those of `Point`s, and the parser those of the literals of an instance
file, which `CoveringInstance` keeps and `decomposition` builds its cells
on. `min_depth` scans a frame of its own; `Frame.min_depth` scans the frame
it is called on.

The depth at a point (t, y) comes from two cumulative count tables over
the distinct corner values, one of cx against cy, one of cx against the
hypotenuse offset cs = cx + cy + 1. A triangle meets the line x = t only if
cx <= t <= cx + 1, and there it covers [cy, cs - t]; so the depth is the
number of those triangles with cy <= y minus those with cs - t < y (which
have cy <= y too), each count a difference of table entries.

Line minima: the triangles are closed, so on a sweep line the depth is an
upper-semicontinuous step function of y, least on some open gap between
consecutive crossings in [wy0, wy1). Going down across a crossing that no
hypotenuse passes through never raises it, so it is least on the gap just
above wy0 or above a hypotenuse crossing s - t; and above the crossing of the
j-th distinct cs, exactly j + 1 of them are at most y + t, so only the cy
count is searched. A line thus costs |s_base| + 1 gap samples, not its
2 * (|y_base| + |s_base|) - 1 sample slots. The scan keeps the first line
at the least minimum and evaluates all the slots of that line alone; their
first at the minimum, in scan order (sorted crossings, then midpoints), is
the first sample at the global minimum, the witness of a scan of every
sample. One call costs O(slabs * |s_base| * log D_y + D_x * D_y) time and
holds two (D_x + 1) x (D_y + 1) int32 tables, D_x and D_y being the numbers
of distinct cx and of distinct cy (or cs): 8 MB at D_x = D_y = 1000.

Certificate-first scan: the scan keeps its `best` line and moves it only
on a strict decrease, so it ends on the first line at the global minimum.
If every window point is known to have depth >= d, a scan that stops at
the first line whose minimum is <= d therefore ends on that same line: its
minimum is exactly d, the global one. d = 0 holds everywhere, so every scan
stops at its first line that reaches depth 0; the scan has no other stop
rule. A larger d comes from a `certify` callable (in the package, the stair
tiling of `verification`), which the scan calls only when it has more than
_CERTIFY_SLOTS_PER_TRANSLATE sample slots per translate, a count read from
the sweep before any sample is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .geom import Point, Rect

__all__ = ["Frame", "min_depth"]

_INT64_LIMIT = 1 << 60
_NO_SAMPLE = np.iinfo(np.int32).max  # above any depth; masks invalid samples
_CHUNK = 64
"""Sweep lines per block; a scan that stops early still takes the minima of
its whole block. With line minima on the seed-1 `generic-verify` instances
(2 vCPUs, Python 3.11.7, numpy 2.4.6, process CPU, best of 7), full scans
take 10-15% less at 128 lines (`gen1` 5.2 ms, 6.2 ms at 64) and 15-30% more
at 32, but certified scans of coverings up to 10% more at 128 (`big1` 2.1
ms against 1.9 ms): the workload's eight scans sum to 19.9 ms at both."""

_CERTIFY_SLOTS_PER_TRANSLATE = 1000
"""Sample slots per translate above which `min_depth` asks for a proof.

Measured with line minima on the seed-1 benchmark corpora (2 vCPUs, Python
3.11.7, numpy 2.4.6, process CPU time, best of 7): on the
generic-coordinate coverings (2,357 to 16,697 slots per translate) the
proof (decompose, containment and tiling grid) and the early scan together
took 1.8-3.2 ms, against 2.0-6.2 ms for the full scan: 1.9 times less on
`gen1` (16,697 per translate), 1.6 on `big1` (2,357), 1.35 on `gen2`
(12,023) and about the same on `gen0` (6,678). On the bignum covering
`big0` (924 per translate) they took 1.0 ms against a 0.9 ms full scan.
The lattices of N about 1,000 have 11 to 33 per translate, and there the
proof costs 35-47 ms against a 0.5-1.1 ms scan; the audited lattices and
perturbed lattices have 8 to 360 (`pert1`, 227: 1.4 ms against 0.25 ms).
"""


class Frame(NamedTuple):
    """Corners and a window in integers: every value is the exact value
    times `scale`, which is four times the lcm of their denominators (so
    both levels of the scan's midpoints stay exact). The arrays are int64
    when every value stays below _INT64_LIMIT and object (bignum)
    otherwise."""

    scale: int
    cx: np.ndarray  # corner x's
    cy: np.ndarray  # corner y's
    cs: np.ndarray  # hypotenuse offsets cx + cy + scale
    bounds: np.ndarray  # window x0, x1, y0, y1

    @classmethod
    def of(cls, corners, window: Rect) -> "Frame":
        """The frame of `Point` corners over the window."""
        return cls.of_int_pairs(
            [(c.x.numerator, c.x.denominator) for c in corners],
            [(c.y.numerator, c.y.denominator) for c in corners],
            window,
        )

    @classmethod
    def of_int_pairs(cls, xs, ys, window: Rect) -> "Frame":
        """The frame of the corners whose x's are `xs` and y's are `ys`,
        each a (numerator, denominator) pair of ints in lowest terms with a
        positive denominator, over the window."""
        edges = [(v.numerator, v.denominator)
                 for v in (window.x0, window.x1, window.y0, window.y1)]
        scale = 4 * lcm(*(d for _, d in edges), *(d for _, d in xs), *(d for _, d in ys))
        # scale is a multiple of every denominator, so these are exact
        cx = [n * (scale // d) for n, d in xs]
        cy = [n * (scale // d) for n, d in ys]
        cs = [x + y + scale for x, y in zip(cx, cy)]
        bounds = [n * (scale // d) for n, d in edges]
        biggest = max(abs(v) for v in (*cx, *cy, *cs, *bounds))
        dtype = np.int64 if biggest < _INT64_LIMIT else object
        return cls(scale, *(np.asarray(v, dtype=dtype) for v in (cx, cy, cs, bounds)))

    def point(self, x: int, y: int) -> Point:
        """The point whose scaled coordinates are (x, y)."""
        return Point(Fraction(x, self.scale), Fraction(y, self.scale))

    def corners(self) -> tuple[Point, ...]:
        return tuple(self.point(x, y) for x, y in zip(self.cx.tolist(), self.cy.tolist()))

    def min_depth(self, *, certify=None):
        """Exact minimum coverage depth of the corners over the window.

        Returns (depth, witness): the true minimum and the first sample, in
        scan order, that attains it.

        `certify`, if given, is a zero-argument callable returning a depth d
        that every window point provably reaches (0 when it proves nothing).
        It is called at most once, and only on a scan of more than
        _CERTIFY_SLOTS_PER_TRANSLATE sample slots per translate. The scan
        stops at the first sweep line whose minimum is <= d (d = 0 without a
        proof), which leaves the result unchanged (see the module
        docstring).
        """
        sweep = y_base, s_base, slabs = _sweep(self)
        slots = len(slabs) * (2 * (len(y_base) + len(s_base)) - 1)
        floor = 0
        if certify is not None and slots > _CERTIFY_SLOTS_PER_TRANSLATE * len(self.cx):
            floor = certify()
        ucx, uxe, (ucy, Cy), (ucs, Cs) = _count_tables(self)
        wy0, wy1 = self.bounds[2:]
        at_wy0 = np.searchsorted(ucy, wy0, "right")
        best = _NO_SAMPLE
        for start in range(0, len(slabs), _CHUNK):
            ts = slabs[start : start + _CHUNK]
            # triangles whose x-range [cx, cx + scale] holds t have ranks
            # lo..hi-1; on the line x = t each covers [cy, cs - t], so on
            # the gap just above y the depth counts cy <= y minus cs - t <= y.
            # Above the crossing y = s_base[j] - t the second count is the
            # first j + 1 values of ucs (= s_base); above wy0 it is searched.
            hi = np.searchsorted(ucx, ts, "right")
            lo = np.searchsorted(uxe, ts, "left")
            cy_rows, cs_rows = Cy[hi] - Cy[lo], Cs[hi] - Cs[lo]
            rows = np.arange(len(ts))
            ys = s_base - ts[:, None]
            r1 = np.searchsorted(ucy, ys, "right") + rows[:, None] * cy_rows.shape[1]
            depth = np.where((ys >= wy0) & (ys < wy1), cy_rows.ravel()[r1] - cs_rows[:, 1:],
                             _NO_SAMPLE).min(1, initial=_NO_SAMPLE)
            r2 = np.searchsorted(ucs, wy0 + ts, "right")
            depth = np.minimum(depth, cy_rows[:, at_wy0] - cs_rows[rows, r2])
            row = int(np.argmin(depth))
            if depth[row] < best:
                best = int(depth[row])
                line = ts[row : row + 1], cy_rows[row], cs_rows[row]
                if best <= floor:
                    break
        # the witness: the first sample at the minimum on the line, in scan order
        ts, cy_row, cs_row = line
        ys, valid = _samples(self, sweep, ts)
        r1 = np.searchsorted(ucy, ys, "right")
        r2 = np.searchsorted(ucs, ys + ts, "left")
        col = int(np.argmin(np.where(valid, cy_row[r1] - cs_row[r2], _NO_SAMPLE)))
        return best, self.point(int(ts[0]), int(ys[0, col]))


def _slab_positions(frame: Frame, y_base, s_base):
    """Sorted sweep-line x positions: all vertex x's plus their midpoints.

    The window's own edges are vertex x's, so at least two survive the clip.
    """
    wx0, wx1 = frame.bounds[:2]
    crossings = (s_base[:, None] - y_base[None, :]).ravel()
    vx = np.unique(np.concatenate([frame.cx, frame.bounds[:2], crossings]))
    vx = vx[(vx >= wx0) & (vx <= wx1)]
    vx = np.unique(np.concatenate([vx, (vx[:-1] + vx[1:]) // 2]))
    return vx[vx < wx1]


def _sweep(frame: Frame):
    """(y_base, s_base, slabs): the y-lines, the hypotenuse offsets and the
    sweep-line x positions that `_iter_chunks` samples. Each sweep line
    holds 2 * (len(y_base) + len(s_base)) - 1 sample slots."""
    y_base = np.unique(np.concatenate([frame.cy, frame.bounds[2:]]))
    s_base = np.unique(frame.cs)
    return y_base, s_base, _slab_positions(frame, y_base, s_base)


def _samples(frame: Frame, sweep, ts):
    """(ys, valid): the face samples of the sweep lines x = ts, one row per
    line holding its sorted crossings and then the midpoints between
    consecutive ones, and which of them lie in the window."""
    wy0, wy1 = frame.bounds[2:]
    y_base, s_base, _ = sweep
    cand = np.concatenate(
        [np.broadcast_to(y_base, (len(ts), len(y_base))), s_base[None, :] - ts[:, None]],
        axis=1,
    )
    cand = np.sort(cand, axis=1)
    mids = (cand[:, :-1] + cand[:, 1:]) // 2
    ys = np.concatenate([cand, mids], axis=1)
    return ys, (ys >= wy0) & (ys < wy1)


def _count_tables(frame: Frame):
    """Distinct corner values and cumulative count tables over them.

    Returns (ucx, uxe, (ucy, Cy), (ucs, Cs)). ucx holds the distinct cx and
    uxe the distinct right ends cx + scale (= cs - cy) of the triangles'
    x-ranges, in the same rank order. Cy[a, r] counts the corners whose cx is
    among the first a values of ucx and whose cy is among the first r values
    of ucy; Cs is the same with cs in place of cy.
    """
    ucx, ix = np.unique(frame.cx, return_inverse=True)

    def table(v):
        uv, iv = np.unique(v, return_inverse=True)
        counts = np.zeros((len(ucx) + 1, len(uv) + 1), dtype=np.int32)
        np.add.at(counts, (ix + 1, iv + 1), 1)
        return uv, counts.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32)

    return ucx, ucx + frame.scale, table(frame.cy), table(frame.cs)


def min_depth(corners, window: Rect):
    """`Frame.min_depth` of the corners over the window, on a frame of
    their own."""
    return Frame.of(list(corners), window).min_depth()
