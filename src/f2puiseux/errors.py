"""Exception types shared across the package.

Arithmetic errors signal domain violations (non-units, unsupported
exponents) or resource bounds (denominator cap, scan bound).  Parse
errors carry the character position at which the input was rejected.

A message that prints a number prints it through _brief, which names
a number of more than 40 digits by its digit count: exponents,
precisions and grid denominators have no size bound, and an int of
over 4300 digits cannot be printed at all, so a message that printed
it would fail with Python's own conversion error instead of its type.
"""

from fractions import Fraction


def _brief(x: Fraction) -> str:
    """x as text, with any term of more than 40 digits given by its
    digit count: an int of over 4300 digits cannot be printed."""
    def term(n):
        m = abs(n)
        if m < 10 ** 40:
            return str(n)
        k = (m.bit_length() - 1) * 30102 // 100000 + 1  # <= digits of m
        while 10 ** k <= m:
            k += 1
        return f"{'-' * (n < 0)}<{k} digits>"

    top = term(x.numerator)
    return top if x.denominator == 1 else f"{top}/{term(x.denominator)}"


class NotAUnit(ValueError):
    """Constant coefficient is 0, so the series has no inverse or root."""


class OddSupport(ValueError):
    """Plain-series square root requested but an odd exponent is present."""


class EvenK(ValueError):
    """Odd-root routine called with an even exponent."""


class DenominatorOverflow(OverflowError):
    """An operation needs a root-grid denominator above the configured cap."""


class Indistinguishable(ValueError):
    """All coefficients within precision are zero; cannot certify nonzero."""


class OutOfRange(ValueError):
    """Requested scan or oracle input exceeds the configured bound."""


class ParseError(ValueError):
    """Base class for element-text rejections; knows where it happened."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ElementSyntaxError(ParseError):
    """Input does not match the element grammar."""


class NonUnitLeadingTerm(ParseError):
    """The unit part of a factored element does not start with 1."""


class NonpositivePrecision(ParseError):
    """The O(.) term leaves no positive precision for the stated terms."""


class ExponentNotIncreasing(ParseError):
    """Term exponents are out of order or duplicated."""
