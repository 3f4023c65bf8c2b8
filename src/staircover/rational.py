"""Exact rational parsing and formatting, and the check on integer counts.

Every coordinate in this package is a `fractions.Fraction`. Floats are
rejected outright rather than converted: half-open membership tests and the
sum-then-x point order both hinge on exact ties, which binary floats cannot
be trusted to preserve.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rat", "rat_str", "int_at_least"]


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
        raise ValueError(f"malformed rational literal {value!r}")
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


def int_at_least(value, least: int, message: str) -> None:
    """Raise ValueError(f"{message}, got {value!r}") unless *value* is an int
    of at least *least*. A bool is not a count, as `rat` refuses it as a
    rational."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{message}, got {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize exactly: "p/q", or plain "n" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
