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
of terms.  Parsing reads well-formed text in a few whole-text passes at
C speed: one regex split checks every term and cuts out its numerals,
int() converts the numerators, and each denominator numeral is
converted once.  An exponent n/d becomes the index n * (big // d) on
the grid 1/big, big the lcm of all denominators, so an unreduced
fraction lands where its reduced form does; one pass checks that the
indices increase and one comparison bounds them by the precision.  Text
that fails any of this is read again one term at a time, and that
reader raises the positioned error of the first bad term.  The indices
are factored by the core that puiseux.decompose_raw uses.  Formatting
renders bit j of a unit body on the grid 1/den as j/den, reduced by one
gcd.  Fractions are built only for the valuation and for error texts.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import lt, mul

from .bitops import bit_indices
from .errors import (ElementSyntaxError, ExponentNotIncreasing,
                     NonpositivePrecision, NonUnitLeadingTerm)
from .puiseux import (DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, Rational,
                      _factor, compose)

# x^n, x^(n) or x^(n/d): group 1 is the parenthesis, 2 the numerator
# and 3 the denominator, which only a parenthesized exponent may have
_EXPONENT = r"x\^(\()?(-?\d+)(?(1)(?:/(\d+))?\))"
_X_TERM = re.compile(rf"{_EXPONENT}\Z")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
# the bulk reader splits at every term with the "+" after it, which
# leaves the O(.) term, read by _TAIL in both readers
_BODY_TERM = re.compile(rf"(?:1|{_EXPONENT})\s*\+\s*")
_TAIL = re.compile(rf"O\({_EXPONENT}\)\s*")


def _too_long(m: re.Match, offset: int) -> ElementSyntaxError:
    # int() refuses more digits than sys.get_int_max_str_digits(); blame
    # the first numeral converted, a denominator (the last group) before
    # its numerator
    limit = sys.get_int_max_str_digits()
    group = next(g for g in (m.re.groups, m.re.groups - 1)
                 if len((m.group(g) or "").lstrip("-")) > limit)
    digits = len(m.group(group).lstrip("-"))
    return ElementSyntaxError(
        f"numeral of {digits} digits exceeds the limit of {limit} digits",
        offset + m.start(group))


def parse_rational(text: str) -> Rational:
    """Parse "n" or "n/d" with positive d."""
    stripped = text.strip()
    m = _RATIONAL.match(stripped)
    if m is None:
        raise ElementSyntaxError(f"expected a rational number, got {text!r}",
                                 0)
    num, den = m.groups()
    try:
        den = 1 if den is None else int(den)
        num = int(num) if den else 0
    except ValueError:
        raise _too_long(m, text.index(stripped)) from None
    if den == 0:
        raise ElementSyntaxError("zero denominator", 0)
    return Fraction(num, den)


def _exponent(m: re.Match, position: int) -> tuple[int, int]:
    """The exponent of a matched term as a (num, den) pair, den > 0."""
    _, num, den = m.groups()
    try:
        den = 1 if den is None else int(den)
        num = int(num) if den else 0  # a zero denominator is reported first
    except ValueError:
        raise _too_long(m, position) from None
    if den == 0:
        raise ElementSyntaxError("zero denominator in exponent", position)
    return num, den


def _read_bulk(s: str):
    """(valuation or None, big, grid indices on 1/big, precision index)
    of well-formed text, or None for anything else.

    Whole-text passes: one regex split checks every term and cuts out
    its numerals, int() converts the numerators, and the denominators
    are converted once per distinct numeral.  An unreduced n/d lands on
    the same index as its reduced form, so no term needs a gcd.
    """
    head, star, body = s.partition("*")
    if not star:
        body = head
    # per term: the text before it (empty when the terms are adjacent),
    # then its three groups; the O(.) term is the text after the last
    parts = _BODY_TERM.split(body.lstrip())
    tail = _TAIL.fullmatch(parts[-1])
    if tail is None or len(parts) == 1 or any(parts[:-1:4]):
        return None
    nums = parts[2::4]
    dens = parts[3::4]
    del parts  # four entries per term: free them before converting
    val = None
    try:
        if star:
            mh = _X_TERM.match(head.strip())
            if mh is None or nums[0] is not None:  # the unit starts with 1
                return None
            val = Fraction(*_exponent(mh, 0))
        pn, pd = _exponent(tail, 0)
        if None in nums:  # the term 1, read as x^0
            nums[nums.index(None)] = "0"
        den_of = {d: 1 if d is None else int(d) for d in set(dens)}
        big = lcm(pd, *den_of.values())
        scale = {d: big // n for d, n in den_of.items()}
        indices = list(map(mul, map(int, nums), map(scale.__getitem__, dens)))
    except (ValueError, TypeError, ZeroDivisionError):
        # an over-long numeral, a second 1 or a zero denominator: errors
        # the per-term reader reports
        return None
    prec = pn * (big // pd)
    if indices[-1] >= prec or not all(map(lt, indices,
                                          islice(indices, 1, None))):
        return None
    return val, big, indices, prec


def _read_terms(s: str):
    """What _read_bulk returns, read one term at a time; raises the
    positioned error of the first term that breaks the grammar."""
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
    m = _TAIL.fullmatch(o_text)
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

    big = lcm(pd, *{d for _, d in terms})
    return val, big, [n * (big // d) for n, d in terms], pn * (big // pd)


def parse_element(s: str, *,
                  den_cap: int | None = DEFAULT_DEN_CAP) -> L0Element:
    """Parse element text into its canonical factored form."""
    # text the bulk reader rejects is read again term by term, which
    # raises the error of the first bad term
    val, big, indices, prec = _read_bulk(s) or _read_terms(s)
    element = _factor(indices, big, prec, den_cap)
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
