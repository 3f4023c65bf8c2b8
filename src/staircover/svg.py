"""SVG rendering of a window decomposition.

Each cell gets its own fill; closed edges (bottom and left) are drawn solid,
the half-open staircase edges (top and right) dashed, the anchor as a filled
dot and the inner corners as open dots. Output is a pure function of the
decomposition, so byte-identical reruns are guaranteed. Each break becomes
a float (by exact int division) and each distinct float coordinate becomes
its "%.3f" text once per render; a cell's paths and markers are joined
from those texts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decomposition import DecompositionResult

__all__ = ["render_decomposition"]

_SIZE = 640
_MARGIN = 24


class _Texts(dict):
    """The SVG coordinate text "%.3f" of `place(v)` by window coordinate v
    (a float), made on the first lookup of v: each distinct coordinate is
    formatted once per render."""

    def __init__(self, place):
        super().__init__()
        self.place = place

    def __missing__(self, v: float) -> str:
        text = self[v] = f"{self.place(v):.3f}"
        return text


class _Mapper:
    """The window [0, l)^2 onto the drawing: `x[v]` and `y[v]` are the
    texts of a window coordinate v, y pointing down from the top."""

    def __init__(self, window: Fraction):
        try:  # float(window) is 0.0 below float range and raises above it
            scale = (_SIZE - 2 * _MARGIN) / float(window)
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError("l: the window side is outside the SVG's float range")
        top = float(window)
        self.x = _Texts(lambda v: _MARGIN + v * scale)
        self.y = _Texts(lambda v: _MARGIN + (top - v) * scale)

    def pair(self, px: float, py: float) -> str:
        return f"{self.x[px]},{self.y[py]}"


def _fill_color(i: int) -> str:
    return f"hsl({(i * 137) % 360},60%,74%)"


def _stair_outline(sx, sy):
    """The closed and the open path of a stair cell, from the texts of its
    x and y breaks."""
    bottom = sy[-1]
    closed = [f"{sx[0]},{sy[0]}", f"{sx[0]},{bottom}", f"{sx[-1]},{bottom}"]
    open_path = [closed[-1]]
    for i in range(len(sx) - 2, -1, -1):
        open_path.append(f"{sx[i + 1]},{sy[i]}")
        open_path.append(f"{sx[i]},{sy[i]}")
    return closed, open_path


def render_decomposition(result: DecompositionResult) -> str:
    inst = result.instance
    m = _Mapper(inst.window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # int true division rounds correctly: each is float(Fraction(v, scale))
    texts = [([m.x[v / c.scale] for v in c.xs], [m.y[v / c.scale] for v in c.ys])
             for _, c in result.cells]
    for (i, _), (sx, sy) in zip(result.cells, texts):
        closed, open_path = _stair_outline(sx, sy)
        polygon = " ".join(closed + open_path[1:])
        color = _fill_color(i)
        parts.append(f'<polygon points="{polygon}" fill="{color}" stroke="none"/>')
        parts.append(
            f'<polyline points="{" ".join(closed)}" fill="none" stroke="#333" stroke-width="1.4"/>'
        )
        parts.append(
            f'<polyline points="{" ".join(open_path)}" fill="none" stroke="#333" '
            f'stroke-width="1.4" stroke-dasharray="6,4"/>'
        )
    for i, cell in result.non_stair:
        xs, ys = [v / cell.scale for v in cell.xs], [v / cell.scale for v in cell.ys]
        for x0, x1, y1 in zip(xs, xs[1:], ys):
            pts = " ".join(m.pair(*p) for p in ((x0, ys[-1]), (x1, ys[-1]), (x1, y1), (x0, y1)))
            parts.append(
                f'<polygon points="{pts}" fill="{_fill_color(i)}" fill-opacity="0.5" '
                f'stroke="#b22" stroke-width="1" stroke-dasharray="3,3"/>'
            )
    # markers drawn after fills so they stay visible
    for sx, sy in texts:
        parts.append(
            f'<circle cx="{sx[0]}" cy="{sy[-1]}" r="3.2" fill="#111"/>'
        )
        for x, y in zip(sx[1:-1], sy[1:-1]):  # the inner corners
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="2.6" '
                f'fill="white" stroke="#111" stroke-width="1.2"/>'
            )
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE - 2 * _MARGIN}" '
        f'height="{_SIZE - 2 * _MARGIN}" fill="none" stroke="black" stroke-width="1.6"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
