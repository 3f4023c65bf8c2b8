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

All sampling arithmetic is integer: coordinates are rescaled by four times
the lcm of the involved denominators, which keeps both levels of midpoints
exact. numpy int64 is used when magnitudes allow, object (bignum) arrays
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .geom import Point, Rect, Triangle

__all__ = ["min_depth", "depth_at"]

_INT64_LIMIT = 1 << 60


def depth_at(corners, p: Point) -> int:
    """Number of triangle translates (anchored at *corners*) containing p."""
    return sum(1 for c in corners if Triangle(c).contains(p))


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


def _corner_arrays(corners, scale, dtype):
    cx = np.asarray([int(c.x * scale) for c in corners], dtype=dtype)
    cy = np.asarray([int(c.y * scale) for c in corners], dtype=dtype)
    cs = np.asarray([int((c.x + c.y + 1) * scale) for c in corners], dtype=dtype)
    return cx, cy, cs


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
    for scale, ts, ys, valid in _iter_chunks(
        [c.x for c in corners], [c.y for c in corners],
        [c.x + c.y + 1 for c in corners], window,
    ):
        if corners:
            cx, cy, cs = _corner_arrays(corners, scale, ts.dtype)
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
