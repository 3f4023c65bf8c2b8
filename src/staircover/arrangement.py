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

All arithmetic is integer, in one frame per query that `_frame` builds: it
alone picks the scale, four times the lcm of every corner and window
denominator (which keeps both levels of midpoints exact), scales each corner
once, and picks numpy int64 when magnitudes allow or object (bignum) arrays
otherwise; the rest of the module runs the same code on either. The
`decomposition` module builds its cells on the same frame. The depth
at a sample (t, y) comes from two cumulative count tables over the distinct
corner values, one of cx against cy, one of cx against the hypotenuse
offset cs = cx + cy + 1. A triangle meets the line x = t only if
cx <= t <= cx + 1, and there it covers [cy, cs - t]; so the depth is the
number of those triangles with cy <= y minus those with cs - t < y (which
have cy <= y too), and each count is a difference of table entries found by
binary search. One call costs O(samples * log N + D_x * D_y) time and holds
two (D_x + 1) x (D_y + 1) int32 tables, D_x and D_y being the numbers of
distinct cx and of distinct cy (or cs): 8 MB at D_x = D_y = 1000.

Certificate-first scan: the scan keeps its `best` sample and moves it only
on a strict decrease, so the exhaustive answer is the first sample, in scan
order, at the global minimum. If every window point is known to have depth
>= d, a scan that stops at the first sample of depth <= d therefore returns
that same (depth, witness): such a sample has depth exactly d, the minimum;
and if the minimum is above d the scan never stops early and is the
exhaustive scan. d = 0 holds everywhere, so every scan stops at its first
depth-0 sample. A larger d comes from a `certify` callable (in the package,
the stair tiling of `verification`), which `min_depth` calls only when the
scan has more than _CERTIFY_SLOTS_PER_TRANSLATE sample slots per
translate, a count read from the sweep before any sample is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .geom import Point, Rect

__all__ = ["min_depth"]

_INT64_LIMIT = 1 << 60
_NO_SAMPLE = np.iinfo(np.int32).max  # above any depth; masks invalid samples
_CHUNK = 256  # sweep lines per sample block

_CERTIFY_SLOTS_PER_TRANSLATE = 1000
"""Sample slots per translate above which `min_depth` asks for a proof.

Measured on the seed-1 benchmark corpora (2 vCPUs, Python 3.11.7, numpy
2.4.6, process CPU time, best of 5): on the generic-coordinate coverings
(2,357 to 16,697 slots per translate) the proof (decompose, containment
and tiling grid, 0.003-0.008 s) and the early scan together took 1.8 to
3.9 times less than the full scan (0.013-0.052 s). On the bignum covering
`big0` (924 per translate) they took 0.009 s against a 0.008 s full scan.
The lattices of N about 1,000 have 11 to 33 per translate, and there the
proof costs 0.04-0.09 s against a 0.002-0.005 s scan; the audited
lattices and perturbed lattices have 8 to 360.
"""


class _Frame(NamedTuple):
    """A depth query in integers: every value is the exact value times scale."""

    scale: int
    cx: np.ndarray  # corner x's
    cy: np.ndarray  # corner y's
    cs: np.ndarray  # hypotenuse offsets cx + cy + scale
    bounds: np.ndarray  # window x0, x1, y0, y1


def _frame(corners, window: Rect) -> _Frame:
    """Scale the corners and the window once, by four times the lcm of their
    denominators, into int64 arrays when every value stays below
    _INT64_LIMIT and object (bignum) arrays otherwise."""
    edges = (window.x0, window.x1, window.y0, window.y1)
    scale = 4 * lcm(
        *(v.denominator for v in edges),
        *(v.denominator for c in corners for v in (c.x, c.y)),
    )
    # scale is a multiple of every denominator, so these are exact
    to_int = lambda v: v.numerator * (scale // v.denominator)
    cx = [to_int(c.x) for c in corners]
    cy = [to_int(c.y) for c in corners]
    cs = [x + y + scale for x, y in zip(cx, cy)]
    bounds = [to_int(v) for v in edges]
    biggest = max(abs(v) for v in (*cx, *cy, *cs, *bounds))
    dtype = np.int64 if biggest < _INT64_LIMIT else object
    return _Frame(scale, *(np.asarray(v, dtype=dtype) for v in (cx, cy, cs, bounds)))


def _slab_positions(frame: _Frame, y_base, s_base):
    """Sorted sweep-line x positions: all vertex x's plus their midpoints.

    The window's own edges are vertex x's, so at least two survive the clip.
    """
    wx0, wx1 = frame.bounds[:2]
    crossings = (s_base[:, None] - y_base[None, :]).ravel()
    vx = np.unique(np.concatenate([frame.cx, frame.bounds[:2], crossings]))
    vx = vx[(vx >= wx0) & (vx <= wx1)]
    vx = np.unique(np.concatenate([vx, (vx[:-1] + vx[1:]) // 2]))
    return vx[vx < wx1]


def _sweep(frame: _Frame):
    """(y_base, s_base, slabs): the y-lines, the hypotenuse offsets and the
    sweep-line x positions that `_iter_chunks` samples. Each sweep line
    holds 2 * (len(y_base) + len(s_base)) - 1 sample slots."""
    y_base = np.unique(np.concatenate([frame.cy, frame.bounds[2:]]))
    s_base = np.unique(frame.cs)
    return y_base, s_base, _slab_positions(frame, y_base, s_base)


def _iter_chunks(frame: _Frame, sweep):
    """Yield (ts, ys, valid) integer sample blocks covering all faces."""
    wy0, wy1 = frame.bounds[2:]
    y_base, s_base, slabs = sweep
    for start in range(0, len(slabs), _CHUNK):
        ts = slabs[start : start + _CHUNK]
        cand = np.concatenate(
            [np.broadcast_to(y_base, (len(ts), len(y_base))), s_base[None, :] - ts[:, None]],
            axis=1,
        )
        cand = np.sort(cand, axis=1)
        mids = (cand[:, :-1] + cand[:, 1:]) // 2
        ys = np.concatenate([cand, mids], axis=1)
        valid = (ys >= wy0) & (ys < wy1)
        yield ts, ys, valid


def _count_tables(frame: _Frame):
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

    return ucx, np.unique(frame.cs - frame.cy), table(frame.cy), table(frame.cs)


def min_depth(corners, window: Rect, *, early_below: int | None = None, certify=None):
    """Exact minimum coverage depth of the triangle family over the window.

    Returns (depth, witness). Without `early_below` the scan is exhaustive
    and the result is the true minimum together with a point attaining it.
    With `early_below` set, the scan may stop at the first sample whose depth
    falls below that threshold; the returned depth is then exact at the
    returned witness but only an upper bound on the true minimum.

    `certify`, if given, is a zero-argument callable returning a depth d
    that every window point provably reaches (0 when it proves nothing).
    It is called at most once, and only on a scan of more than
    _CERTIFY_SLOTS_PER_TRANSLATE sample slots per translate. The scan stops
    at the first sample of depth <= d (d = 0 without a proof), which leaves
    the result unchanged (see the module docstring).
    """
    frame = _frame(list(corners), window)
    sweep = y_base, s_base, slabs = _sweep(frame)
    slots = len(slabs) * (2 * (len(y_base) + len(s_base)) - 1)
    floor = 0
    if certify is not None and slots > _CERTIFY_SLOTS_PER_TRANSLATE * len(frame.cx):
        floor = certify()
    stop_below = floor + 1 if early_below is None else max(early_below, floor + 1)
    ucx, uxe, (ucy, Cy), (ucs, Cs) = _count_tables(frame)
    best = None
    witness = None
    for ts, ys, valid in _iter_chunks(frame, sweep):
        # triangles whose x-range [cx, cx + scale] holds t have ranks lo..hi-1;
        # on the line x = t each covers [cy, cs - t], so the depth at y counts
        # cy <= y minus cs - t < y (which implies cy <= y)
        hi = np.searchsorted(ucx, ts, "right")
        lo = np.searchsorted(uxe, ts, "left")
        r1 = np.searchsorted(ucy, ys, "right")
        r2 = np.searchsorted(ucs, ys + ts[:, None], "left")
        rows = np.arange(len(ts))[:, None]
        depth = (Cy[hi] - Cy[lo])[rows, r1] - (Cs[hi] - Cs[lo])[rows, r2]
        depth = np.where(valid, depth, _NO_SAMPLE)
        flat = int(np.argmin(depth))
        row, col = divmod(flat, depth.shape[1])
        if valid[row, col]:
            d = int(depth[row, col])
            if best is None or d < best:
                best = d
                witness = Point(
                    Fraction(int(ts[row]), frame.scale),
                    Fraction(int(ys[row, col]), frame.scale),
                )
                if best < stop_below:
                    return best, witness
    if best is None:
        raise ValueError("window produced no sample points")
    return best, witness
