"""Exact primitives: points, half-open rectangles and half-open stair
polygons.

Conventions used throughout the package:

* The canonical triangle has vertices (0,0), (1,0), (0,1). The translate at
  a corner is the closed set {p : p.x >= corner.x, p.y >= corner.y,
  (p.x - corner.x) + (p.y - corner.y) <= 1}, handled through its corner.
* Rectangles and stair polygons are half open in the [x0, x1) x [y0, y1)
  sense: closed on the left and bottom, open on the right and top. This
  keeps membership and tiling multiplicity free of boundary double counts.
* Corners are ordered by coordinate sum, ties broken by x: a strict total
  order on distinct points. Triangle a cuts triangle b when the two meet
  and a's corner comes later; `decomposition` and `verification` test this
  in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import on_one_scale, rat, rat_str

__all__ = [
    "Point",
    "Rect",
    "StairPolygon",
    "pt",
    "scaled_point",
]


@dataclass(frozen=True, order=False)
class Point:
    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({rat_str(self.x)}, {rat_str(self.y)})"


def pt(x, y) -> Point:
    """Build a Point from any exact rational representation (not float)."""
    return Point(rat(x), rat(y))


def scaled_point(x: int, y: int, scale: int) -> Point:
    """The point whose coordinates times the positive *scale* are the ints (x, y)."""
    return Point(Fraction(x, scale), Fraction(y, scale))


@dataclass(frozen=True)
class Rect:
    """Half-open axis-aligned rectangle [x0, x1) x [y0, y1)."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rectangle {self}")

    def __str__(self) -> str:
        return (
            f"[{rat_str(self.x0)},{rat_str(self.x1)})x"
            f"[{rat_str(self.y0)},{rat_str(self.y1)})"
        )


class StairPolygon:
    """Half-open r-stair polygon, its breaks ints on an integer `scale`.

    Strictly ascending `xs` (x_0 < ... < x_{r+1}) and strictly descending
    `ys` (y_0 > ... > y_{r+1}) are the breaks times `scale`; the point set
    is the union of the half-open columns [x_i, x_{i+1}) x [y_{r+1}, y_i).
    Adjacent columns never share a top, so the breaks on one scale are
    canonical. Equality and hashing are by point set, across scales too.
    The area is an int on the scale squared (`scaled_area`).
    """

    __slots__ = ("xs", "ys", "scale")

    def __init__(self, xs, ys, scale: int):
        xs, ys = tuple(xs), tuple(ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need r+2 x-breaks and r+2 y-breaks with r >= 0")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("x-breaks must be strictly ascending")
        if any(a <= b for a, b in zip(ys, ys[1:])):
            raise ValueError("y-breaks must be strictly descending")
        self.xs, self.ys, self.scale = xs, ys, scale

    @classmethod
    def of(cls, x_breaks, y_breaks) -> "StairPolygon":
        """The polygon of exact rational breaks, on the lcm of their denominators."""
        xs = [rat(v) for v in x_breaks]
        scale, up = on_one_scale(xs + [rat(v) for v in y_breaks])
        return cls(up[:len(xs)], up[len(xs):], scale)

    def __eq__(self, other):
        if not isinstance(other, StairPolygon) or len(self.xs) != len(other.xs):
            return False
        a, b = other.scale, self.scale
        return all(u * a == v * b for u, v in zip(self.xs + self.ys, other.xs + other.ys))

    def __hash__(self):
        return hash((self.x_breaks, self.y_breaks))

    def __repr__(self):
        xs = ",".join(rat_str(v) for v in self.x_breaks)
        ys = ",".join(rat_str(v) for v in self.y_breaks)
        return f"StairPolygon(x=[{xs}], y=[{ys}])"

    @property
    def x_breaks(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.xs)

    @property
    def y_breaks(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.ys)

    @property
    def stair_count(self) -> int:
        """The number r of inner (reflex) corners."""
        return len(self.xs) - 2

    def scaled_area(self) -> int:
        """The area times the scale squared: the columns' int areas summed."""
        xs, ys = self.xs, self.ys
        area, bottom = 0, ys[-1]
        for a, b, top in zip(xs, xs[1:], ys):
            area += (b - a) * (top - bottom)
        return area

    def to_rects(self) -> tuple[Rect, ...]:
        """Column decomposition: r+1 pairwise-disjoint half-open rectangles."""
        xs, ys = self.x_breaks, self.y_breaks
        return tuple(Rect(xs[i], xs[i + 1], ys[-1], ys[i]) for i in range(len(xs) - 1))
