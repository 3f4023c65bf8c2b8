"""SVG rendering of a window decomposition.

Each cell gets its own fill; closed edges (bottom and left) are drawn solid,
the half-open staircase edges (top and right) dashed, the anchor as a filled
dot and the inner corners as open dots. Output is a pure function of the
decomposition, so byte-identical reruns are guaranteed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decomposition import DecompositionResult

__all__ = ["render_decomposition"]

_SIZE = 640
_MARGIN = 24


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Mapper:
    def __init__(self, window: Fraction):
        try:  # float(window) is 0.0 below float range and raises above it
            self.scale = (_SIZE - 2 * _MARGIN) / float(window)
        except (OverflowError, ZeroDivisionError):
            self.scale = math.inf
        if not math.isfinite(self.scale):
            raise ValueError("l: the window side is outside the SVG's float range")
        self.window = window

    def x(self, v) -> str:
        return _fmt(_MARGIN + float(v) * self.scale)

    def y(self, v) -> str:
        return _fmt(_MARGIN + (float(self.window) - float(v)) * self.scale)

    def pair(self, px, py) -> str:
        return f"{self.x(px)},{self.y(py)}"


def _fill_color(i: int) -> str:
    return f"hsl({(i * 137) % 360},60%,74%)"


def _stair_outline(xs, ys, m: _Mapper):
    bottom = ys[-1]
    closed = [m.pair(xs[0], ys[0]), m.pair(xs[0], bottom), m.pair(xs[-1], bottom)]
    open_path = [m.pair(xs[-1], bottom)]
    for i in range(len(xs) - 2, -1, -1):
        open_path.append(m.pair(xs[i + 1], ys[i]))
        open_path.append(m.pair(xs[i], ys[i]))
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
    breaks = [([v / c.scale for v in c.xs], [v / c.scale for v in c.ys])
              for _, c in result.cells]
    for (i, _), (xs, ys) in zip(result.cells, breaks):
        closed, open_path = _stair_outline(xs, ys, m)
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
    for xs, ys in breaks:
        parts.append(
            f'<circle cx="{m.x(xs[0])}" cy="{m.y(ys[-1])}" r="3.2" fill="#111"/>'
        )
        for x, y in zip(xs[1:-1], ys[1:-1]):  # the inner corners
            parts.append(
                f'<circle cx="{m.x(x)}" cy="{m.y(y)}" r="2.6" '
                f'fill="white" stroke="#111" stroke-width="1.2"/>'
            )
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE - 2 * _MARGIN}" '
        f'height="{_SIZE - 2 * _MARGIN}" fill="none" stroke="black" stroke-width="1.6"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
