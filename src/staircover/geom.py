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

from .rational import rat, rat_str

__all__ = [
    "Point",
    "Rect",
    "StairPolygon",
    "pt",
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
    """Half-open r-stair polygon.

    Defined by strictly ascending x-breaks (x_0 < ... < x_{r+1}) and strictly
    descending y-breaks (y_0 > ... > y_{r+1}); the point set is the union of
    the half-open columns [x_i, x_{i+1}) x [y_{r+1}, y_i). The representation
    is canonical: adjacent columns never share the same top, so two stair
    polygons describe the same point set iff their breaks are equal.
    """

    __slots__ = ("x_breaks", "y_breaks")

    def __init__(self, x_breaks, y_breaks):
        xs = tuple(x_breaks)
        ys = tuple(y_breaks)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need r+2 x-breaks and r+2 y-breaks with r >= 0")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("x-breaks must be strictly ascending")
        if any(a <= b for a, b in zip(ys, ys[1:])):
            raise ValueError("y-breaks must be strictly descending")
        self.x_breaks = xs
        self.y_breaks = ys

    @classmethod
    def of(cls, x_breaks, y_breaks) -> "StairPolygon":
        return cls(tuple(rat(v) for v in x_breaks), tuple(rat(v) for v in y_breaks))

    @classmethod
    def rect(cls, x0, x1, y0, y1) -> "StairPolygon":
        """Single-column (r = 0) stair polygon [x0,x1) x [y0,y1)."""
        return cls.of((x0, x1), (y1, y0))

    def __eq__(self, other):
        return (
            isinstance(other, StairPolygon)
            and self.x_breaks == other.x_breaks
            and self.y_breaks == other.y_breaks
        )

    def __hash__(self):
        return hash((self.x_breaks, self.y_breaks))

    def __repr__(self):
        xs = ",".join(rat_str(v) for v in self.x_breaks)
        ys = ",".join(rat_str(v) for v in self.y_breaks)
        return f"StairPolygon(x=[{xs}], y=[{ys}])"

    @property
    def stair_count(self) -> int:
        """The number r of inner (reflex) corners."""
        return len(self.x_breaks) - 2

    @property
    def anchor(self) -> Point:
        """Lower-left vertex (x_0, y_{r+1})."""
        return Point(self.x_breaks[0], self.y_breaks[-1])

    def inner_corners(self) -> tuple[Point, ...]:
        """The reflex corners (x_j, y_j) for j = 1..r; empty when r = 0."""
        return tuple(
            Point(self.x_breaks[j], self.y_breaks[j])
            for j in range(1, len(self.x_breaks) - 1)
        )

    def area(self) -> Fraction:
        bottom = self.y_breaks[-1]
        return sum(
            (self.x_breaks[i + 1] - self.x_breaks[i]) * (self.y_breaks[i] - bottom)
            for i in range(len(self.x_breaks) - 1)
        )

    def to_rects(self) -> tuple[Rect, ...]:
        """Column decomposition: r+1 pairwise-disjoint half-open rectangles."""
        bottom = self.y_breaks[-1]
        return tuple(
            Rect(self.x_breaks[i], self.x_breaks[i + 1], bottom, self.y_breaks[i])
            for i in range(len(self.x_breaks) - 1)
        )
