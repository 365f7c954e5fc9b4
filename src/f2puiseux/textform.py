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

Within the den cap the codec works on integer grid indices, in time
linear in the number of terms.  One reader parses: after the precision
marker and the valuation factor, one regex split checks every body term
and cuts out its numerals, and puiseux._plan, decompose_raw's planner,
converts them, each distinct denominator once.  While big, the lcm of all
denominators, is within the den cap, n/d becomes the index
n * (big // d) on the grid 1/big, where an unreduced fraction lands on
its reduced form's index, and one pass checks that the indices rise to
the precision; past the cap, the same pass reads exact Fractions.
A refused body is not walked whole: _plan names the first bad term
(the first that does not rise, or a bisection finds an earlier one at
or past the precision), and a term the split skips or _plan cannot
convert ends that search early.  The walk reads the bad term and the
one before it and raises the positioned error, before the den cap is
checked; an empty term outranks every other error.  Every numeral
outside the split is read by one reader, _numerals: the walk, the
precision marker, the valuation factor and parse_rational.  Formatting
renders bit j of a unit body on the grid 1/den as j/den, reduced by one
gcd.  Within the cap, only the valuation and error texts build Fractions.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import compress, count
from math import gcd

from .bitops import bit_indices
from .errors import (ElementSyntaxError, ExponentNotIncreasing,
                     NonpositivePrecision, NonUnitLeadingTerm, OutOfRange,
                     ParseError, _brief)
from .puiseux import DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, _plan, compose

# x^n, x^(n) or x^(n/d): group 1 is the parenthesis, 2 the numerator
# and 3 the denominator, which only a parenthesized exponent may have
_EXPONENT = r"x\^(\()?(-?\d+)(?(1)(?:/(\d+))?\))"
_X_TERM = re.compile(rf"{_EXPONENT}\Z")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
# the reader splits the body at every term with the "+" after it; the
# O(.) term after the last "+" is read by _TAIL
_BODY_TERM = re.compile(rf"(?:1|{_EXPONENT})\s*\+\s*")
_TAIL = re.compile(rf"O\({_EXPONENT}\)\s*")
# a blank term after a "+", searched for in "+" + text so that the first
# term follows one too
_EMPTY_TERM = re.compile(r"\+\s*(?=\+|\Z)")


def _numerals(m: re.Match, offset: int,
              zero: str = "zero denominator in exponent",
              at: int | None = None) -> tuple[int, int]:
    """The numerator and denominator numerals of m, its last two groups,
    as ints, a missing denominator 1.  The denominator is converted
    first: a zero one raises ElementSyntaxError(zero) at position at
    (offset by default) before the numerator is converted."""
    num, den = m.groups()[-2:]
    try:
        den = 1 if den is None else int(den)
        if den:
            return int(num), den
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits();
        # blame the first numeral converted, the denominator first
        limit = sys.get_int_max_str_digits()
        group = next(g for g in (m.re.groups, m.re.groups - 1)
                     if len((m.group(g) or "").lstrip("-")) > limit)
        digits = len(m.group(group).lstrip("-"))
        raise ElementSyntaxError(
            f"numeral of {digits} digits exceeds the limit of {limit} "
            "digits", offset + m.start(group)) from None
    raise ElementSyntaxError(zero, offset if at is None else at)


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" with positive d."""
    stripped = text.strip()
    m = _RATIONAL.match(stripped)
    if m is None:
        raise ElementSyntaxError(f"expected a rational number, got {text!r}",
                                 0)
    num, den = _numerals(m, text.index(stripped), "zero denominator", 0)
    return Fraction(num, den)


def _walk(body: str, factored: bool, pn: int, pd: int, offset: int = 0):
    """Numerators and denominators of the "+"-separated terms of body,
    read one at a time below the precision pn/pd; the first bad term
    raises at its position, offset by offset.  A factored body starts
    with the 1 read with the factor."""
    nums, dens, off = [], [], offset
    for chunk in body.split("+"):
        pos = off + len(chunk) - len(chunk.lstrip())
        off += len(chunk) + 1
        text = "1" if factored and not nums else chunk.strip()
        if text == "1":
            n, d = 0, 1
        else:
            m = _X_TERM.match(text)
            if m is None:
                raise ElementSyntaxError(
                    f"expected '1' or 'x^(a/b)', got {text!r}", pos)
            n, d = _numerals(m, pos)
        if nums and n * dens[-1] <= nums[-1] * d:
            raise ExponentNotIncreasing(
                f"exponent {Fraction(n, d)} does not increase past "
                f"{Fraction(nums[-1], dens[-1])}", pos)
        if n * pd >= pn * d:
            raise NonpositivePrecision(
                f"term x^({Fraction(n, d)}) is not representable below "
                f"the precision O(x^({Fraction(pn, pd)}))", pos)
        nums.append(n)
        dens.append(d)
    return nums, dens


def _unconvertible(num, den) -> bool:
    """Whether _plan cannot convert a term's numerals: a second 1, a zero
    denominator or an over-long numeral."""
    try:
        int(num)  # None for a second 1
        return not int(den or 1)
    except (TypeError, ValueError):
        return True


def parse_element(s: str, *,
                  den_cap: int = DEFAULT_DEN_CAP) -> L0Element:
    """Parse element text into its canonical factored form.

    The tail O(x^(P)) and the valuation factor are read first, then the
    body by one regex split; for a body the split or _plan rejects, the
    walk reads the first bad term and the one before it, and the bad
    term raises its positioned error."""
    try:
        cut = s.rfind("+")
        lead = len(s) - len(s.lstrip())  # where the first term starts
        if cut < 0:
            raise ElementSyntaxError(
                "element needs at least one term and a trailing O(x^(P))",
                lead)
        o_text = s[cut + 1:].lstrip()
        o_pos = len(s) - len(o_text)
        tail = _TAIL.fullmatch(o_text)
        if tail is None:
            raise ElementSyntaxError("expected precision marker O(x^(P)), "
                                     f"got {o_text.rstrip()!r}", o_pos)
        pn, pd = _numerals(tail, o_pos)
        val = 0
        first = s.find("+")
        star = s.find("*", 0, first)  # -1 when there is no valuation factor
        if star >= 0:
            head = s[:star].strip()
            mh = _X_TERM.match(head)
            if mh is None:
                raise ElementSyntaxError(
                    f"expected valuation factor 'x^(a/b)', got {head!r}", lead)
            val = Fraction(*_numerals(mh, lead))
            one = s[star + 1:first].strip()
            if one != "1":
                raise NonUnitLeadingTerm(
                    f"unit part must start with 1, got {one!r}", star + 1)
        # per term: the text before it (empty when the terms are adjacent),
        # then its three groups; the split reads the n terms before the
        # first nonempty text, and holds the body if no "+" follows them
        parts = _BODY_TERM.split(s[star + 1:].lstrip())
        heads = parts[:-1:4]
        n = next(compress(count(), heads)) if any(heads) else len(heads)
        holds = n == len(heads) and "+" not in parts[-1]
        nums, dens = parts[2:4 * n:4], parts[3:4 * n:4]
        del parts, heads  # free the split's entries before converting
        if None in nums:  # the term 1, read as x^0
            nums[nums.index(None)] = "0"
        try:
            a = _plan(nums, dens, pn, pd, den_cap) if holds else None
        except (ValueError, TypeError, ZeroDivisionError):
            a = None  # an over-long numeral, a second 1 or a zero denominator
        if a is None:
            # the terms the split read before the first _plan cannot
            # convert, then a term at the precision, refused at the latest
            j = next(compress(count(), map(_unconvertible, nums, dens)),
                     len(nums))
            a = _plan([*nums[:j], pn], [*dens[:j], pd], pn, pd, den_cap)
        if type(a) is int:
            # a is the first bad term: the walk reads it and the one before
            # and raises; should it return, as behind a swapped split, the
            # walk reads every term
            r = max(a - 1, 0)
            pieces = s[:cut].split("+", a + 1)
            _walk("+".join(pieces[r:a + 1]), star >= 0 and not r, pn, pd,
                  sum(map(len, pieces[:r])) + r)
            a = _plan(*_walk(s[:cut], star >= 0, pn, pd), pn, pd, den_cap)
    except ParseError:
        # an empty term outranks every other error
        empty = _EMPTY_TERM.search("+" + s)
        if empty:
            raise ElementSyntaxError("empty term", empty.start()) from None
        raise
    return compose(val + a.val, a.unit) if val else a


def parse_unit(s: str, *,
               den_cap: int = DEFAULT_DEN_CAP) -> PuiseuxUnit:
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
    """Canonical rendering; a zero valuation prints as a bare unit.

    Canonical text is never abbreviated, so an element with a numeral
    past Python's limit on int-to-text conversion raises OutOfRange,
    which names the longest numeral by its digit count."""
    try:
        unit_text = format_unit(a.unit)
        if a.val == 0:
            return unit_text
        return f"x^({a.val}) * {unit_text}"
    except ValueError:
        longest = max(abs(n) for q in (a.val, a.unit.aprec)
                      for n in (q.numerator, q.denominator))
        raise OutOfRange(f"the text of the element needs a numeral of "
                         f"{_brief(longest)}, more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
