"""Exact coverage-depth queries over a half-open rectangular window.

Every boundary in play is a line of one of three families: x = c, y = c or
x + y = c (triangle legs, hypotenuses and window edges). Membership of each
closed triangle translate is therefore constant on every face (vertex, open
edge, open 2-cell) of the arrangement of those lines, so the exact minimum
depth over a window is the least depth at finitely many rational sample
points, when they meet every face that can hold it.

Sampling scheme: let wx0 = v_0 < v_1 < ... < v_m = wx1 be the distinct x's
in [wx0, wx1] of the arrangement's vertices (corner x's, the window's x
edges, and every crossing s - y of a hypotenuse offset and a y-line).
Sweep the m + 1 vertical lines x = wx0 and x = (v_{i-1} + v_i) / 2,
i = 1..m, in that order, and on each take every crossing with an
arrangement line plus every midpoint between consecutive crossings. The open slab
(v_{i-1}, v_i) holds no vertex, so its midpoint line crosses every edge
and 2-cell of the slab, and the samples meet all of them. The vertex lines
x = v_i, i >= 1, are not swept, and they need not be: the triangles are
closed, so depth is upper-semicontinuous, and with M the least depth in
the window, {depth <= M} = {depth < M + 1} is open. A window point at
depth M on x = v_i, v_i > wx0, therefore has window points at depth M just
to its left, filling part of a 2-cell of the slab (v_{i-1}, v_i), which
the earlier midpoint line crosses. So the first line at the minimum of a
sweep through every vertex x and every midpoint is x = wx0 or a midpoint
line, one of the lines swept here, and both sweeps give the same minimum
and the same first sample at it (the tests compare the two).

All arithmetic is integer, on a `Frame`: the corners and the window
scaled once by four times the lcm of every corner and window denominator
(which keeps both levels of midpoints exact), in numpy int64 arrays when
magnitudes allow or object (bignum) arrays otherwise; the rest of the
module runs the same code on either. `Frame.of_ints` alone picks the
scale and the dtype, from int corners on one denominator: `Frame.of` hands
it those of `Point`s, and `CoveringInstance.frame`, on its first read, the
instance's ints (which the parser reads straight from the literals of an
instance file); `decomposition` builds its cells on that frame.
`min_depth` scans a frame of its own; `Frame.min_depth` the one it is on.

The depth at a point (t, y) comes from two cumulative count tables of the
distinct cx against the sweep's y_base (the distinct cy and the window's y
edges) and s_base (the distinct hypotenuse offsets cs = cx + cy + 1). A
triangle meets the line x = t only if cx <= t <= cx + 1, and there it
covers [cy, cs - t]; so the depth is the number of those triangles with
cy <= y minus those with cs - t < y (which have cy <= y too), each count a
difference of table entries.

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
sample. With D_x distinct cx and C = |s_base| * |y_base| crossings (capped
at _MAX_CROSSINGS), one call costs O(C log C) time to find the vertex
x's, O(m * |s_base| * log |y_base|) for the line minima and
O(D_x * (|y_base| + |s_base|)) for the count tables; it holds the C int64
crossings and two int32 tables of D_x + 1 rows, by |y_base| + 1 and
|s_base| + 1 columns: 8 MB at 1000 each.

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

from math import lcm
from typing import NamedTuple

import numpy as np

from .geom import Rect, scaled_point
from .rational import on_one_scale

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

_MAX_CROSSINGS = 150_000_000
"""Most crossings |s_base| * |y_base| the depth scan makes before its first
sweep line; a scan that needs more raises ValueError naming the translates.
Each crossing takes 8 bytes in the int64 crossings array and as many again
in its copy joined to the corner x's and in its sorted copy. The admitted
generic 2-fold covering of side 40 (N = 10,949, 113,967,372 crossings)
took 2.64 GB at peak in `verify`, count tables included; the lattice of
N = 91,201 of the grid basis (1/2, 0), (0, 1/2) at l = 150, perturbed by
1/64, would need 2,074,628,520 crossings (15.5 GiB for the first array)."""

_CERTIFY_SLOTS_PER_TRANSLATE = 750
"""Sample slots per translate above which `Frame.min_depth` asks for a proof.

Measured on the seed-1 and seed-7 benchmark corpora (2 vCPUs, Python
3.11.7, numpy 2.4.6, process CPU time of `coverage_certificate` on a fresh
instance, best of 7): on the generic-coordinate coverings (3,343 to 8,527
slots per translate) the proof (decompose, containment and tiling grid)
and the early scan together took 0.8-1.3 ms, against 1.1-3.0 ms for the
full scan: 2.5 times less on `gen1`, 1.7 on `gen2`, 1.3 on `gen0`, and 1.5
on the bignum `big1` (1,182 and 1,190 per translate). On the bignum
covering `big0` (466 and 491) they took 0.74-0.77 ms against a 0.58-0.61
ms full scan. The lattices of N about 1,000 have 5 to 16 per translate,
and there the proof costs 1.4-25 ms against a 0.7-0.9 ms scan; the audited
and perturbed lattices have 4 to 183 (`pert3`: 1.2 ms against 0.4 ms).
750 lies between `big0` and `big1`. The non-coverings (3,089 to 11,089)
ask too, as no count tells them apart before the proof, which then
refutes itself and adds 0.1-0.3 ms to a 0.4-2.3 ms scan.
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
        den, vs = on_one_scale([v for c in corners for v in (c.x, c.y)])
        return cls.of_ints(den, list(zip(vs[::2], vs[1::2])), window)

    @classmethod
    def of_ints(cls, den: int, points, window: Rect) -> "Frame":
        """The frame over the window of the corners whose (x, y) times the
        positive *den* are the int pairs *points*."""
        wden, edges = on_one_scale((window.x0, window.x1, window.y0, window.y1))
        scale = 4 * lcm(den, wden)
        up = scale // den
        cx = [x * up for x, _ in points]
        cy = [y * up for _, y in points]
        cs = [x + y + scale for x, y in zip(cx, cy)]
        bounds = [v * (scale // wden) for v in edges]
        biggest = max(abs(v) for v in (*cx, *cy, *cs, *bounds))
        dtype = np.int64 if biggest < _INT64_LIMIT else object
        return cls(scale, *(np.asarray(v, dtype=dtype) for v in (cx, cy, cs, bounds)))

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
        ucx, uxe, Cy, Cs = _count_tables(self, y_base, s_base)
        wy0, wy1 = self.bounds[2:]
        at_wy0 = np.searchsorted(y_base, wy0, "right")
        best = _NO_SAMPLE
        for start in range(0, len(slabs), _CHUNK):
            ts = slabs[start : start + _CHUNK]
            # triangles whose x-range [cx, cx + scale] holds t have ranks
            # lo..hi-1; on the line x = t each covers [cy, cs - t], so on
            # the gap just above y the depth counts cy <= y minus cs - t <= y.
            # Above the crossing y = s_base[j] - t the second count is the
            # first j + 1 values of s_base; above wy0 it is searched.
            hi = np.searchsorted(ucx, ts, "right")
            lo = np.searchsorted(uxe, ts, "left")
            cy_rows, cs_rows = Cy[hi] - Cy[lo], Cs[hi] - Cs[lo]
            rows = np.arange(len(ts))
            ys = s_base - ts[:, None]
            r1 = np.searchsorted(y_base, ys, "right") + rows[:, None] * cy_rows.shape[1]
            depth = np.where((ys >= wy0) & (ys < wy1), cy_rows.ravel()[r1] - cs_rows[:, 1:],
                             _NO_SAMPLE).min(1, initial=_NO_SAMPLE)
            # "left" gives the same minimum: when some cs is wy0 + t, the gap
            # above wy0 is also sampled above that crossing, with the right count.
            r2 = np.searchsorted(s_base, wy0 + ts, "right")
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
        r1 = np.searchsorted(y_base, ys, "right")
        r2 = np.searchsorted(s_base, ys + ts, "left")
        col = int(np.argmin(np.where(valid, cy_row[r1] - cs_row[r2], _NO_SAMPLE)))
        return best, scaled_point(int(ts[0]), int(ys[0, col]), self.scale)


def _distinct(values):
    """`np.unique(values)`, on int64 and `object` arrays alike, by a sort
    and a mask of the neighbours that differ; no hashing."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _slab_positions(frame: Frame, y_base, s_base):
    """Sorted sweep-line x positions: x = wx0, then the midpoint of each
    pair of consecutive distinct vertex x's in [wx0, wx1] (the window's own
    edges among them): as many lines as there are such vertex x's.

    Raises ValueError, before the crossings are made, when they would be
    more than _MAX_CROSSINGS.
    """
    count = len(s_base) * len(y_base)
    if count > _MAX_CROSSINGS:
        raise ValueError(
            f"translates: the depth scan would make {count:,} crossings of "
            f"{len(s_base):,} hypotenuses and {len(y_base):,} horizontal lines, "
            f"more than its cap of {_MAX_CROSSINGS:,}"
        )
    wx0, wx1 = frame.bounds[:2]
    crossings = (s_base[:, None] - y_base[None, :]).ravel()
    vx = _distinct(np.concatenate([frame.cx, frame.bounds[:2], crossings]))
    vx = vx[(vx >= wx0) & (vx <= wx1)]
    return np.concatenate([vx[:1], (vx[:-1] + vx[1:]) // 2])


def _sweep(frame: Frame):
    """(y_base, s_base, slabs): the y-lines, the hypotenuse offsets and the
    sweep-line x positions of `Frame.min_depth` (`_slab_positions`). Each
    sweep line holds 2 * (len(y_base) + len(s_base)) - 1 sample slots."""
    y_base = _distinct(np.concatenate([frame.cy, frame.bounds[2:]]))
    s_base = _distinct(frame.cs)
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


def _count_tables(frame: Frame, y_base, s_base):
    """(ucx, uxe, Cy, Cs): the distinct cx, the distinct right ends
    cx + scale (= cs - cy) of the triangles' x-ranges in the same rank
    order, and two cumulative count tables. Cy[a, r] counts the corners
    whose cx is among the first a values of ucx and whose cy is among the
    first r of `_sweep`'s y_base; Cs is the same with cs and s_base."""
    ucx = _distinct(frame.cx)
    ix = np.searchsorted(ucx, frame.cx)

    def table(base, v):
        shape = len(ucx) + 1, len(base) + 1
        flat = (ix + 1) * shape[1] + np.searchsorted(base, v) + 1
        counts = np.bincount(flat, minlength=shape[0] * shape[1]).reshape(shape)
        counts = counts.cumsum(0, dtype=np.int32)  # frees the int64 counts
        return counts.cumsum(1, dtype=np.int32, out=counts)

    return ucx, ucx + frame.scale, table(y_base, frame.cy), table(s_base, frame.cs)


def min_depth(corners, window: Rect):
    """`Frame.min_depth` of the corners over the window, on a frame of
    their own."""
    return Frame.of(list(corners), window).min_depth()
