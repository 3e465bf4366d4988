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


def rat_to_json(x: Fraction) -> int | str:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_json(value: int | str) -> int | Fraction:
    """A JSON rational: ints pass through as they are, "p/q" strings parse."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"not a rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a CLI rational: "7", "3/4" and decimal strings are accepted."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # the text may run to thousands of digits
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"invalid rational {shown}") from exc


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
