import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2puiseux import (DenominatorOverflow, ElementSyntaxError, F2Series,
                       ExponentNotIncreasing, Indistinguishable, L0Element,
                       NonpositivePrecision, NonUnitLeadingTerm, OutOfRange,
                       ParseError, PuiseuxUnit, compose, format_element, format_unit,
                       parse_element, parse_unit)
from f2puiseux.textform import parse_rational


def U(den, bits, prec):
    return PuiseuxUnit(den, F2Series(bits, prec))


class TestParse:
    def test_plain_unit(self):
        a = parse_element("1 + x^(1/2) + O(x^(3))")
        assert a.val == 0
        assert a.unit.den == 2 and a.unit.body.coeffs == 0b11
        assert a.unit.aprec == 3

    def test_factored(self):
        a = parse_element("x^(-5/3) * 1 + x^(1/3) + O(x^(2))")
        assert a.val == Q(-5, 3)
        assert a.unit.den == 3 and a.unit.body.coeffs == 0b11
        assert a.unit.aprec == 2

    def test_raw_series_is_factored(self):
        a = parse_element("x^(1/2) + x^(1) + x^(3/2) + O(x^(2))")
        assert a.val == Q(1, 2)
        assert a.unit.den == 2 and a.unit.body.coeffs == 0b111
        assert a.unit.aprec == Q(3, 2)

    def test_bare_integer_exponents(self):
        a = parse_element("1 + x^2 + O(x^4)")
        assert a.unit.den == 1 and a.unit.body.coeffs == 0b101

    def test_whitespace_liberal(self):
        a = parse_element("  1   +   x^(1/2)+O(x^(2)) ")
        assert a.unit.den == 2

    def test_precision_beyond_term_rejected(self):
        with pytest.raises(NonpositivePrecision):
            parse_element("x^(1/2) + O(x^(1/4))")

    def test_zero_precision_rejected(self):
        with pytest.raises(NonpositivePrecision):
            parse_element("1 + O(x^(0))")

    def test_unit_must_lead_with_one(self):
        with pytest.raises(NonUnitLeadingTerm):
            parse_element("x^(1/2) * x^(1/3) + O(x^(2))")

    def test_exponents_must_increase(self):
        with pytest.raises(ExponentNotIncreasing):
            parse_element("1 + x^(2) + x^(1) + O(x^(4))")
        with pytest.raises(ExponentNotIncreasing):
            parse_element("1 + x^(1) + x^(1) + O(x^(4))")

    def test_missing_o_term(self):
        with pytest.raises(ElementSyntaxError):
            parse_element("1 + x^(1/2)")

    def test_garbage_term(self):
        with pytest.raises(ElementSyntaxError):
            parse_element("1 + y^(2) + O(x^(4))")

    def test_positions_reported(self):
        s = "1 + x^(2) + x^(1) + O(x^(4))"
        with pytest.raises(ExponentNotIncreasing) as info:
            parse_element(s)
        assert info.value.position == s.index("x^(1)")

    def test_zero_denominator(self):
        with pytest.raises(ElementSyntaxError):
            parse_element("1 + x^(1/0) + O(x^(2))")

    def test_empty_term(self):
        with pytest.raises(ElementSyntaxError):
            parse_element("1 +  + O(x^(2))")

    def test_cap_respected(self):
        with pytest.raises(DenominatorOverflow):
            parse_element("1 + x^(1/97) + O(x^(1))", den_cap=50)

    def test_parse_unit_rejects_valuation(self):
        with pytest.raises(NonUnitLeadingTerm):
            parse_unit("x^(1/2) + x^(1) + O(x^(2))")
        u = parse_unit("1 + x^(3/4) + O(x^(1))")
        assert u.den == 4

    def test_parse_rational(self):
        assert parse_rational("-5/3") == Q(-5, 3)
        assert parse_rational("7") == 7
        with pytest.raises(ElementSyntaxError):
            parse_rational("5/")
        with pytest.raises(ElementSyntaxError):
            parse_rational("1/0")


class TestParseFuzz:
    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        # whatever the text, parsing returns an element or raises one of
        # the documented errors
        try:
            element = parse_element(text)
        except (ParseError, DenominatorOverflow, Indistinguishable):
            return
        assert isinstance(element, L0Element)


class TestFormat:
    def test_identity_unit(self):
        a = L0Element(Q(0), PuiseuxUnit.one(5))
        assert format_element(a) == "1 + O(x^(5))"

    def test_unit_with_terms(self):
        u = U(2, 0b111, 3)
        assert format_unit(u) == "1 + x^(1/2) + x^(1) + O(x^(3/2))"

    def test_valuation_prefix(self):
        a = L0Element(Q(3, 2), PuiseuxUnit.one(4))
        assert format_element(a) == "x^(3/2) * 1 + O(x^(4))"

    def test_integer_exponents_have_no_denominator(self):
        u = U(1, 0b101, 3)
        assert format_unit(u) == "1 + x^(2) + O(x^(3))"


    @pytest.mark.parametrize("val, prec, digits", [
        (Q(1, (10 ** 4001 + 1) * (10 ** 4000 + 1)), 1, 8002),
        (Q(0), 10 ** 5000, 5001)], ids=["valuation", "precision"])
    def test_unprintable_numeral_is_out_of_range(self, val, prec, digits):
        # canonical text is never abbreviated, so a numeral that Python
        # will not print is refused, named by its digit count
        a = L0Element(val, U(1, 1, prec))
        with pytest.raises(OutOfRange, match=(
                f"^the text of the element needs a numeral of <{digits} "
                f"digits>, more than {sys.get_int_max_str_digits()} "
                "digits$")):
            format_element(a)


class TestRoundTrip:
    def test_format_then_parse_is_identity(self):
        rng = random.Random(71)
        for _ in range(300):
            den = rng.choice((1, 2, 3, 4, 6, 8, 12))
            prec = rng.randrange(1, 40)
            u = U(den, rng.getrandbits(prec) | 1, prec)
            val = Q(rng.randrange(-30, 30), rng.randrange(1, 12))
            if rng.random() < 0.2:
                val = Q(0)
            a = compose(val, u)
            back = parse_element(format_element(a))
            assert back.val == a.val
            assert back.unit.den == a.unit.den
            assert back.unit.body.coeffs == a.unit.body.coeffs
            assert back.unit.body.prec == a.unit.body.prec

    def test_parse_then_format_idempotent(self):
        for s in [
            "x^(1/2) + x^(1) + x^(3/2) + O(x^(2))",
            "1 + x^2 + O(x^4)",
            "x^(0) * 1 + x^(1/3) + O(x^(1))",
            "x^(-7/2) + O(x^(0))",
        ]:
            once = format_element(parse_element(s))
            twice = format_element(parse_element(once))
            assert once == twice
