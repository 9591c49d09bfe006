"""Scalar helpers: exact rationals with float fallback.

Payoffs and probabilities are kept as ``fractions.Fraction`` whenever the
inputs are rational, so results like 5/3 or 15/16 check exactly.  Floats are
accepted anywhere and simply stay floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction | int | float

_RATIONAL_TOL = 1e-12

# The largest decimal exponent a scalar string may carry.  Fraction("1eN")
# computes 10**N, which takes seconds from N = 1e7 on; 4300 is the digit
# limit Python already applies to the mantissa.
MAX_EXPONENT = 4300


class BadRationalError(ValueError):
    """A string that looks like 'a/b' but is not a valid rational."""


def parse_scalar(value) -> Scalar:
    """Parse a JSON / CLI scalar: int and 'a/b' become Fraction, float stays float.

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
        return value
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


def format_scalar(x: Scalar) -> str:
    """Lossless text form: rationals as 'a/b' (or 'a'), floats with 15 digits."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return f"{x:.15g}"


def scalar_to_json(x: Fraction) -> int | str:
    """JSON form of an exact rational: an integer when the denominator is 1, else 'a/b'."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def scalars_equal(a: Scalar, b: Scalar, tol: float = _RATIONAL_TOL) -> bool:
    """Exact equality for rationals, tolerance comparison once floats appear."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= tol
