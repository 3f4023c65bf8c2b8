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

All arithmetic is integer: coordinates are rescaled by four times the lcm of
the involved denominators, which keeps both levels of midpoints exact. The
depth at a sample (t, y) comes from two cumulative count tables over the
distinct corner values, one of cx against cy, one of cx against the
hypotenuse offset cs = cx + cy + 1. A triangle meets the line x = t only if
cx <= t <= cx + 1, and there it covers [cy, cs - t]; so the depth is the
number of those triangles with cy <= y minus those with cs - t < y (which
have cy <= y too), and each count is a difference of table entries found by
binary search. One call costs O(samples * log N + D_x * D_y) time and holds
two (D_x + 1) x (D_y + 1) int32 tables, D_x and D_y being the numbers of
distinct cx and of distinct cy (or cs): 8 MB at D_x = D_y = 1000. numpy
int64 is used when magnitudes allow, object (bignum) arrays otherwise, with
the same code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .geom import Point, Rect

__all__ = ["min_depth"]

_INT64_LIMIT = 1 << 60
_NO_SAMPLE = np.iinfo(np.int32).max  # above any depth; masks invalid samples


def _scaled_setup(x_vals, y_vals, sum_vals, window: Rect):
    """Common-denominator integer rescaling of all line offsets and bounds."""
    xs = sorted({window.x0, window.x1, *x_vals})
    ys = sorted({window.y0, window.y1, *y_vals})
    ss = sorted(set(sum_vals))
    denoms = [v.denominator for v in (*xs, *ys, *ss)]
    scale = 4 * lcm(*denoms) if denoms else 4
    to_int = lambda v: int(v * scale)  # exact by construction of scale
    X = [to_int(v) for v in xs]
    Y = [to_int(v) for v in ys]
    S = [to_int(v) for v in ss]
    bounds = tuple(to_int(v) for v in (window.x0, window.x1, window.y0, window.y1))
    biggest = max(
        (abs(v) for v in (*X, *Y, *S, *bounds)),
        default=0,
    )
    dtype = np.int64 if biggest < _INT64_LIMIT else object
    return scale, X, Y, S, bounds, dtype


def _slab_positions(X, Y, S, wx0, wx1, dtype):
    """Sorted sweep-line x positions: all vertex x's plus their midpoints."""
    vx = np.unique(np.asarray(X, dtype=dtype))
    if len(S) and len(Y):
        crossings = (
            np.asarray(S, dtype=dtype)[:, None] - np.asarray(Y, dtype=dtype)[None, :]
        ).ravel()
        vx = np.unique(np.concatenate([vx, crossings]))
    vx = vx[(vx >= wx0) & (vx <= wx1)]
    if len(vx) == 0:
        vx = np.asarray([wx0], dtype=dtype)
    if len(vx) > 1:
        mids = (vx[:-1] + vx[1:]) // 2
        vx = np.unique(np.concatenate([vx, mids]))
    return vx[(vx >= wx0) & (vx < wx1)]


def _iter_chunks(x_vals, y_vals, sum_vals, window: Rect, chunk: int = 256):
    """Yield (scale, ts, ys, valid) integer sample blocks covering all faces."""
    scale, X, Y, S, (wx0, wx1, wy0, wy1), dtype = _scaled_setup(
        x_vals, y_vals, sum_vals, window
    )
    slabs = _slab_positions(X, Y, S, wx0, wx1, dtype)
    y_base = np.asarray(Y, dtype=dtype)
    s_base = np.asarray(S, dtype=dtype)
    for start in range(0, len(slabs), chunk):
        ts = slabs[start : start + chunk]
        cand = np.broadcast_to(y_base, (len(ts), len(y_base)))
        if len(s_base):
            cand = np.concatenate([cand, s_base[None, :] - ts[:, None]], axis=1)
        cand = np.sort(cand, axis=1)
        mids = (cand[:, :-1] + cand[:, 1:]) // 2
        ys = np.concatenate([cand, mids], axis=1)
        valid = (ys >= wy0) & (ys < wy1)
        yield scale, ts, ys, valid


def _count_tables(corners, scale, dtype):
    """Distinct scaled corner values and cumulative count tables over them.

    Returns (ucx, uxe, (ucy, Cy), (ucs, Cs)). ucx holds the distinct cx and
    uxe the distinct right ends cx + scale (= cs - cy) of the triangles'
    x-ranges, in the same rank order. Cy[a, r] counts the corners whose cx is
    among the first a values of ucx and whose cy is among the first r values
    of ucy; Cs is the same with cs in place of cy.
    """
    # scale is a multiple of every denominator, so these are exact
    cx = [c.x.numerator * (scale // c.x.denominator) for c in corners]
    cy = [c.y.numerator * (scale // c.y.denominator) for c in corners]
    cs = [x + y + scale for x, y in zip(cx, cy)]

    def ranked(v):
        uv = sorted(set(v))
        rank = {u: r for r, u in enumerate(uv, 1)}
        return uv, np.asarray([rank[u] for u in v], dtype=np.intp)

    xs, ix = ranked(cx)

    def table(v):
        uv, iv = ranked(v)
        counts = np.zeros((len(xs) + 1, len(uv) + 1), dtype=np.int32)
        np.add.at(counts, (ix, iv), 1)
        cum = counts.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32)
        return np.asarray(uv, dtype=dtype), cum

    ucx = np.asarray(xs, dtype=dtype)
    uxe = np.asarray([u + scale for u in xs], dtype=dtype)
    return ucx, uxe, table(cy), table(cs)


def min_depth(corners, window: Rect, *, early_below: int | None = None):
    """Exact minimum coverage depth of the triangle family over the window.

    Returns (depth, witness). Without `early_below` the scan is exhaustive
    and the result is the true minimum together with a point attaining it.
    With `early_below` set, the scan may stop at the first sample whose depth
    falls below that threshold; the returned depth is then exact at the
    returned witness but only an upper bound on the true minimum.
    """
    corners = list(corners)
    best = None
    witness = None
    tables = None
    for scale, ts, ys, valid in _iter_chunks(
        [c.x for c in corners], [c.y for c in corners],
        [c.x + c.y + 1 for c in corners], window,
    ):
        if tables is None:
            tables = _count_tables(corners, scale, ts.dtype)
        ucx, uxe, (ucy, Cy), (ucs, Cs) = tables
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
                    Fraction(int(ts[row]), scale), Fraction(int(ys[row, col]), scale)
                )
                if early_below is not None and best < early_below:
                    return best, witness
    if best is None:
        raise ValueError("window produced no sample points")
    return best, witness
