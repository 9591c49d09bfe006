"""Scalar helpers: every payoff is an exact rational.

``parse_scalar`` is the one place where an input becomes a payoff or a
probability, and it always returns a ``fractions.Fraction``: a float reads as
the decimal Python prints for it, so results like 5/3 or 15/16 check exactly.
Floats remain only as weights computed in floating point (Born
probabilities, Monte-Carlo estimates); ``is_exact`` tells the two apart.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction | int | float

# The largest decimal exponent a scalar string may carry.  Fraction("1eN")
# computes 10**N, which takes seconds from N = 1e7 on; 4300 is the digit
# limit Python already applies to the mantissa.
MAX_EXPONENT = 4300


class BadRationalError(ValueError):
    """A string that looks like 'a/b' but is not a valid rational."""


def parse_scalar(value) -> Fraction:
    """Parse a JSON / CLI scalar exactly: an int, a decimal string or an 'a/b'
    string, and a float read as its shortest repr, so 0.1 is 1/10.

    Raises BadRationalError for malformed 'a/b' strings, for a decimal
    exponent above MAX_EXPONENT in magnitude, and for NaN or an infinity,
    which are not payoffs or probabilities.
    """
    if isinstance(value, bool):
        raise BadRationalError(f"not a number: {value!r}")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise BadRationalError(f"not a rational: {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        _, marker, exponent = text.upper().partition("E")
        try:
            if not marker or abs(int(exponent)) <= MAX_EXPONENT:
                return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadRationalError(f"not a rational: {value!r}") from exc
        raise BadRationalError(f"exponent of {value!r} above {MAX_EXPONENT} in magnitude")
    raise BadRationalError(f"not a number: {value!r}")


def scalar_to_json(x: Fraction) -> int | str:
    """JSON form of an exact rational: an integer when the denominator is 1, else 'a/b'."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))
