"""Exact-rational helpers: JSON encoding, the integer grid, small utilities.

Nothing is ever rounded.  Coordinates live on one integer grid (``sig.PointSet``),
and the embedder's radius schedule is the integer m(v) (``pseudo``).  ``Fraction``
carries only what a file or a report states: the scheduled radii, built once
from m, reported values and JSON input.  JSON writes a rational as a plain int
when the denominator is 1, else as a ``"p/q"`` string.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import shorten


def rat_to_json(x: Fraction) -> int | str:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# Characters a parsed rational may hold, an exponent counting as the digits it
# adds, so that every value derived from it stays printable.
MAX_DIGITS = 1000


def rat_from_json(value: int | str) -> int | Fraction:
    """A JSON rational: ints pass through as they are, "p/q" strings parse."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"not a rational: {shorten(repr(value))}")


def parse_rational(text: str) -> Fraction:
    """Parse a CLI rational: "7", "3/4" and decimal strings, up to ``MAX_DIGITS`` long."""
    mantissa, _, exponent = text.lower().partition("e")
    try:  # a longer text is refused before Fraction builds it
        if len(mantissa) + abs(int(exponent or 0)) <= MAX_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # the text may run to thousands of digits
        raise ValueError(f"invalid rational {shorten(text, repr)}") from exc
    raise ValueError(f"invalid rational {shorten(text, repr)}: more than {MAX_DIGITS} digits")


def ceil_log2(x: int) -> int:
    """Smallest w with 2**w >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


def common_scale(values) -> int:
    """LCM of the denominators, i.e. the scale putting all values on Z."""
    return lcm(*{v.denominator for v in values})


def to_grid(values, scale: int) -> list[int]:
    """Exact integers x*scale, for a scale that every denominator divides."""
    return [x.numerator * (scale // x.denominator) for x in values]
