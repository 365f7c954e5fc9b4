"""Canonical text rendering and parsing of elements.

The wire format writes an element as an optional valuation factor
followed by a unit and a precision marker:

    x^(-5/3) * 1 + x^(1/3) + O(x^(2))
    1 + x^(1/2) + x^(1) + O(x^(3/2))

Output always parenthesizes exponents and prints reduced fractions
with integer exponents bare of a denominator.  Input is more liberal:
integer exponents may drop the parentheses ("x^2"), whitespace around
"+" and "*" is free, and a raw sum of powers without a leading 1 is
accepted and factored into canonical form, so parsing followed by
formatting is idempotent and formatting followed by parsing is the
identity.

The codec works on integer grid indices, in time linear in the number
of terms.  Parsing reads each exponent as a reduced (num, den) pair,
checks order and precision by cross-multiplying, and factors the terms
on one common grid, as puiseux.decompose_raw does.  Formatting renders
bit j of a unit body on the grid 1/den as j/den, reduced by one gcd.
Fractions are built only for the valuation and for error texts.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .bitops import bit_indices
from .errors import (ElementSyntaxError, ExponentNotIncreasing,
                     NonpositivePrecision, NonUnitLeadingTerm)
from .puiseux import (DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, Rational,
                      _factor, compose)

_EXPONENT = r"(?:\((-?\d+)(?:/(\d+))?\)|(-?\d+))"
_X_TERM = re.compile(rf"x\^{_EXPONENT}\Z")
_O_TERM = re.compile(rf"O\(x\^{_EXPONENT}\)\Z")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?\Z")


def _too_long(m: re.Match, offset: int) -> ElementSyntaxError:
    # int() refuses more digits than sys.get_int_max_str_digits(); blame
    # the first numeral converted, a denominator before its numerator
    limit = sys.get_int_max_str_digits()
    group = next(g for g in (2, 1, 3)[:m.re.groups]
                 if len((m.group(g) or "").lstrip("-")) > limit)
    digits = len(m.group(group).lstrip("-"))
    return ElementSyntaxError(
        f"numeral of {digits} digits exceeds the limit of {limit} digits",
        offset + m.start(group))


def parse_rational(text: str, position: int = 0) -> Rational:
    """Parse "n" or "n/d" with positive d."""
    stripped = text.strip()
    m = _RATIONAL.match(stripped)
    if m is None:
        raise ElementSyntaxError(f"expected a rational number, got {text!r}",
                                 position)
    num, den = m.groups()
    try:
        den = 1 if den is None else int(den)
        num = int(num) if den else 0
    except ValueError:
        raise _too_long(m, position + text.index(stripped)) from None
    if den == 0:
        raise ElementSyntaxError("zero denominator", position)
    return Fraction(num, den)


def _exponent(m: re.Match, position: int) -> tuple[int, int]:
    """The exponent of a matched term as a reduced (num, den) pair."""
    num, den, bare = m.groups()
    try:
        if den is None:
            return int(bare if num is None else num), 1
        den = int(den)
        num = int(num) if den else 0  # a zero denominator is reported first
    except ValueError:
        raise _too_long(m, position) from None
    if den == 0:
        raise ElementSyntaxError("zero denominator in exponent", position)
    g = gcd(num, den)
    return num // g, den // g


def parse_element(s: str, *,
                  den_cap: int | None = DEFAULT_DEN_CAP) -> L0Element:
    """Parse element text into its canonical factored form."""
    # "+" never occurs inside exponent parentheses, so a flat split is exact
    parts = []
    off = 0
    for chunk in s.split("+"):
        stripped = chunk.strip()
        if not stripped:
            raise ElementSyntaxError("empty term", off)
        parts.append((off + chunk.index(stripped[0]), stripped))
        off += len(chunk) + 1

    if len(parts) < 2:
        raise ElementSyntaxError(
            "element needs at least one term and a trailing O(x^(P))",
            parts[-1][0] if parts else 0)

    o_pos, o_text = parts[-1]
    m = _O_TERM.match(o_text)
    if m is None:
        raise ElementSyntaxError(
            f"expected precision marker O(x^(P)), got {o_text!r}", o_pos)
    pn, pd = _exponent(m, o_pos)

    val = None
    body = parts[:-1]
    first_pos, first_text = body[0]
    if "*" in first_text:
        head, _, lead = first_text.partition("*")
        head = head.strip()
        mh = _X_TERM.match(head)
        if mh is None:
            raise ElementSyntaxError(
                f"expected valuation factor 'x^(a/b)', got {head!r}", first_pos)
        val = Fraction(*_exponent(mh, first_pos))
        lead = lead.strip()
        if lead != "1":
            raise NonUnitLeadingTerm(
                f"unit part must start with 1, got {lead!r}",
                first_pos + first_text.index("*") + 1)
        body[0] = (first_pos, "1")

    terms = []
    last_n, last_d = 0, 0  # no term yet
    for pos, text in body:
        if text == "1":
            n, d = 0, 1
        else:
            m = _X_TERM.match(text)
            if m is None:
                raise ElementSyntaxError(
                    f"expected '1' or 'x^(a/b)', got {text!r}", pos)
            n, d = _exponent(m, pos)
        if last_d and n * last_d <= last_n * d:
            raise ExponentNotIncreasing(
                f"exponent {Fraction(n, d)} does not increase past "
                f"{Fraction(last_n, last_d)}", pos)
        if n * pd >= pn * d:
            raise NonpositivePrecision(
                f"term x^({Fraction(n, d)}) is not representable below the "
                f"precision O(x^({Fraction(pn, pd)}))", pos)
        terms.append((n, d))
        last_n, last_d = n, d

    element = _factor(terms, pn, pd, den_cap)
    if val is not None:
        element = compose(val + element.val, element.unit)
    return element


def parse_unit(s: str, *,
               den_cap: int | None = DEFAULT_DEN_CAP) -> PuiseuxUnit:
    """Parse unit text; reject anything with a nonzero valuation."""
    element = parse_element(s, den_cap=den_cap)
    if element.val != 0:
        raise NonUnitLeadingTerm(
            f"expected a unit starting with 1, found valuation {element.val}")
    return element.unit


def format_unit(u: PuiseuxUnit) -> str:
    """Canonical rendering: ascending exponents, all parenthesized."""
    den = u.den
    # exponents after the leading 1 (bit 0, always set), then the
    # precision; j/den in lowest terms, bare of a denominator of 1
    terms = [f"x^({j // g}/{den // g})" if (g := gcd(j, den)) != den
             else f"x^({j // den})"
             for j in (*bit_indices(u.body.coeffs ^ 1), u.body.prec)]
    terms[-1] = f"O({terms[-1]})"
    return "1 + " + " + ".join(terms)


def format_element(a: L0Element) -> str:
    """Canonical rendering; a zero valuation prints as a bare unit."""
    unit_text = format_unit(a.unit)
    if a.val == 0:
        return unit_text
    return f"x^({a.val}) * {unit_text}"
