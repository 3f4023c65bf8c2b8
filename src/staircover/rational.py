"""Exact rational parsing and formatting, and the check on integer counts.

Every coordinate in this package is exact: a `fractions.Fraction` in the
public types, or an int on one common scale in the integer kernels: in the
corners of an instance, on their least common denominator (whose plain
"p/q" and "n" literals `fileio` reads without `rat`), in the frame that
the instance carries (`arrangement.Frame`) and in the breaks of the stair
cells decomposed on that frame. `on_one_scale` puts any exact values on
their least common denominator. Floats are rejected outright rather than
converted: half-open membership tests and the sum-then-x point order both
hinge on exact ties, which binary floats cannot be trusted to preserve.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rat", "rat_str", "lowest", "on_one_scale", "int_at_least", "brief_repr"]

_ECHO_CHARS = 40  # most characters of an input that an error message repeats


def rat(value) -> Fraction:
    """Coerce *value* to an exact Fraction.

    Accepts Fraction, int, and strings such as "3" or "-2/7".
    Floats raise TypeError instead of being rounded into the lattice of
    representable binary values. Exponent notation ("1e9") is refused: its
    cost grows with the exponent, not with the length of the string.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" not in value.lower():
            try:
                return Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f"malformed rational literal {brief_repr(value)}")
    raise TypeError(
        f"exact rational required, got {type(value).__name__}: {brief_repr(value)}"
    )


def lowest(n: int, d: int) -> tuple[int, int]:
    """The (numerator, denominator) pair of n/d in lowest terms, for a positive d."""
    g = gcd(n, d)
    return n // g, d // g


def on_one_scale(values) -> tuple[int, list[int]]:
    """(d, ints): the least common denominator d of the exact rationals
    *values* (Fractions or ints) and each value times d."""
    values = list(values)
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def int_at_least(value, least: int, message: str) -> None:
    """Raise ValueError(f"{message}, got {value!r}") unless *value* is an int
    of at least *least*. A bool is not a count, as `rat` refuses it as a
    rational."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{message}, got {brief_repr(value)}")


def brief_repr(value) -> str:
    """`repr(value)`, or, for a string (or a repr) longer than 40
    characters, the repr of its first 40 characters and its length, so
    that an error message stays short on a huge literal."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def rat_str(value: Fraction) -> str:
    """Serialize exactly: "p/q", or plain "n" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
