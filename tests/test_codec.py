"""The integer-index text codec against the Fraction reference codec.

Parsing, factoring and formatting must agree with tests/oracles.py on
every accepted input (valuation, grid, bits, precision and output text)
and, on every rejected one, in exception type, position and message.
"""

import random
import sys
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2puiseux import (DenominatorOverflow, ElementSyntaxError, F2Series,
                       Indistinguishable, ParseError, PuiseuxUnit, compose,
                       decompose_raw, format_unit, parse_element)
from f2puiseux.textform import parse_rational
from oracles import (reference_decompose_raw, reference_format_unit,
                     reference_parse_element)
from test_textform import token_text

DENS = (1, 2, 3, 4, 6, 8, 12)
# the separators of the benchmark's wire workload
SEPARATORS = (" + ", "+", "  +   ", " +", "+ ")
HEAD_SEPARATORS = ("*", " * ", "  *")


def _exponent_text(rng, e):
    num, den = e.numerator, e.denominator
    if den == 1 and rng.random() < 0.5:
        return f"x^{num}"
    if rng.random() < 0.25:  # an unreduced fraction
        k = rng.randint(2, 3)
        num, den = num * k, den * k
    return f"x^({num})" if den == 1 else f"x^({num}/{den})"


def _element_parts(rng, form, terms=None):
    """Terms of an element text on mixed grids, the O(.) marker last."""
    terms = terms or rng.randint(1, 12)
    exps = sorted({Q(rng.randint(-60, 60), rng.choice(DENS))
                   for _ in range(terms)})
    prec = exps[-1] + Q(rng.randint(1, 24), rng.choice(DENS))
    if form == "raw":
        return ([_exponent_text(rng, e) for e in exps]
                + [f"O({_exponent_text(rng, prec)})"])
    v = exps[0]
    rel = [_exponent_text(rng, e - v) for e in exps[1:]]
    head = "1"
    if form == "factored":
        head = f"{_exponent_text(rng, v)}{rng.choice(HEAD_SEPARATORS)}1"
    return [head] + rel + [f"O({_exponent_text(rng, prec - v)})"]


def _join(rng, parts):
    out = [rng.choice(("", " ")), parts[0]]
    for p in parts[1:]:
        out += [rng.choice(SEPARATORS), p]
    return "".join(out)


def _outcome(parse, render, text, **kwargs):
    try:
        a = parse(text, **kwargs)
    except (ParseError, DenominatorOverflow, Indistinguishable) as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    unit_text = render(a.unit)
    text = unit_text if a.val == 0 else f"x^({a.val}) * {unit_text}"
    return a.val, a.unit.den, a.unit.body.coeffs, a.unit.body.prec, text


def _agree(text, **kwargs):
    got = _outcome(parse_element, format_unit, text, **kwargs)
    want = _outcome(reference_parse_element, reference_format_unit, text,
                    **kwargs)
    assert got == want, text
    return got


class TestParseAgainstReference:
    @given(st.randoms(use_true_random=False),
           st.sampled_from(("unit", "factored", "raw")))
    @settings(max_examples=300, deadline=None)
    def test_wellformed(self, rng, form):
        got = _agree(_join(rng, _element_parts(rng, form)))
        assert not isinstance(got[0], type)

    @given(st.randoms(use_true_random=False),
           st.sampled_from(("unit", "factored", "raw")))
    @settings(max_examples=100, deadline=None)
    def test_den_cap(self, rng, form):
        _agree(_join(rng, _element_parts(rng, form)),
               den_cap=rng.choice((1, 2, 3, 4, 6)))

    @given(token_text)
    @settings(max_examples=300, deadline=None)
    def test_token_sequences(self, text):
        _agree(text)

    @given(st.text(alphabet="x^()/-+*O 0123", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        _agree(text)

    @pytest.mark.parametrize("defect", range(6))
    def test_wire_defects(self, defect):
        # the malformed inputs of the benchmark's wire workload
        for seed in range(40):
            rng = random.Random(f"{defect}:{seed}")
            parts = _element_parts(rng, "unit", rng.randint(4, 12))
            mid = rng.randrange(1, len(parts) - 2)
            if defect == 0:
                parts[mid], parts[mid + 1] = parts[mid + 1], parts[mid]
            elif defect == 1:
                parts = parts[:-1]
            elif defect == 2:
                parts[mid] = "x^(1/0)"
            elif defect == 3:
                parts.insert(-1, "x^(1000000)")
            elif defect == 4:
                parts[0] = "x^(1/2) * x^(1)"
            else:
                bad = parts[mid]
                parts[mid] = (bad.replace(")", "", 1) if ")" in bad
                              else bad + "(")
            assert isinstance(_agree(_join(rng, parts))[0], type)

    @pytest.mark.parametrize("text", [
        "1 + x^(1/0) + O(x^(2))",
        "1 + x^(1) + O(x^(2/0))",
        "x^(3/0) * 1 + x^(1) + O(x^(2))",
        "x^(1/2) * x^(1) + O(x^(2))",
        "y^(1/2) * 1 + O(x^(2))",
        " * 1 + O(x^(2))",
        "x^(1/2) ** 1 + O(x^(2))",
        "x^(1/2) * 1 * 1 + O(x^(2))",
        "x^(1/2) + x^(2/4) + O(x^(2))",
        "x^(-1/2) + x^(-2/3) + O(x^(2))",
        "x^(5/2) + O(x^(10/4))",
        "1 + x^(1) + O(x^(1))",
        "1 + O(x^(-3))",
        "1 +  + O(x^(2))",
        "+ 1 + O(x^(2))",
        "1 + x^(1)",
        "",
    ])
    def test_rejections(self, text):
        assert isinstance(_agree(text)[0], type)


class TestDecomposeRawAgainstReference:
    @given(st.lists(st.tuples(st.integers(-8, 8), st.sampled_from(DENS)),
                    max_size=24),
           st.integers(0, 24), st.integers(1, 30), st.sampled_from(DENS))
    @settings(max_examples=300, deadline=None)
    def test_repeats(self, pairs, k, top, top_den):
        exps = [Q(n, d) for n, d in pairs]
        exps += exps[:k]  # a repeated prefix cancels
        aprec = max(exps, default=Q(0)) + Q(top, top_den)
        self._agree(exps, aprec)

    @given(st.lists(st.tuples(st.integers(-40, 40), st.sampled_from(DENS)),
                    max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_cancels_to_empty(self, pairs):
        exps = [Q(n, d) for n, d in pairs] * 2
        random.Random(len(exps)).shuffle(exps)
        with pytest.raises(Indistinguishable):
            decompose_raw(exps, 50)
        self._agree(exps, 50)

    def test_beyond_precision(self):
        self._agree([Q(1, 2), 3, Q(1, 3)], 3)

    def test_den_cap(self):
        self._agree([0, Q(1, 97)], 1, den_cap=50)
        self._agree([0, Q(1, 7), Q(2, 7)], Q(3, 7), den_cap=1)

    def _agree(self, exps, aprec, **kwargs):
        outcomes = []
        for fn in (decompose_raw, reference_decompose_raw):
            try:
                a = fn(exps, aprec, **kwargs)
                outcomes.append((a.val, a.unit.den, a.unit.body.coeffs,
                                 a.unit.body.prec))
            except (ValueError, DenominatorOverflow) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_cap_checked_before_allocation(self):
        # on the common grid 1/1000000007 the bitmap would take 125 MB
        tracemalloc.start()
        try:
            with pytest.raises(DenominatorOverflow):
                decompose_raw([0, Q(1, 1000000007), 1], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFormatAgainstReference:
    @given(st.sampled_from((1, 2, 3, 5, 6, 12, 97, 65536)),
           st.integers(1, 300), st.integers(0, 2 ** 300))
    @settings(max_examples=300, deadline=None)
    def test_units(self, den, prec, bits):
        u = PuiseuxUnit(den, F2Series(bits | 1, prec))
        assert format_unit(u) == reference_format_unit(u)

    def test_reprs_pinned(self):
        def U(den, bits, prec):
            return PuiseuxUnit(den, F2Series(bits, prec))

        assert repr(U(1, 0b1, 5)) == "PuiseuxUnit(1 + O(x^(5)))"
        assert repr(U(2, 0b111, 3)) == (
            "PuiseuxUnit(1 + x^(1/2) + x^(1) + O(x^(3/2)))")
        u = U(6, 0b1010110011, 17)
        assert repr(u) == (
            "PuiseuxUnit(1 + x^(1/6) + x^(2/3) + x^(5/6) + x^(7/6) + "
            "x^(3/2) + O(x^(17/6)))")
        assert repr(U(12, (1 << 40) | (1 << 18) | (1 << 9) | 1, 45)) == (
            "PuiseuxUnit(1 + x^(3/4) + x^(3/2) + x^(10/3) + O(x^(15/4)))")
        assert repr(F2Series(0, 4)) == "F2Series(0 + O(t^4))"
        assert repr(F2Series(1, 1)) == "F2Series(1 + O(t^1))"
        assert repr(F2Series(0b110, 3)) == "F2Series(t + t^2 + O(t^3))"
        assert repr(F2Series(0b1011001, 9)) == (
            "F2Series(1 + t^3 + t^4 + t^6 + O(t^9))")
        assert repr(compose(Q(-5, 3), u)) == (
            "L0Element(x^(-5/3) * PuiseuxUnit(1 + x^(1/6) + x^(2/3) + "
            "x^(5/6) + x^(7/6) + x^(3/2) + O(x^(17/6))))")


class TestLongNumerals:
    """A numeral longer than int() accepts is a syntax error at its
    position, not a bare ValueError."""

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("template", [
        "1 + x^({}) + O(x^(2))",
        "1 + x^(1/{}) + O(x^(2))",
        "1 + x^{} + O(x^(2))",
        "x^(-{}/3) * 1 + O(x^(2))",
        "1 + O(x^({}))",
        "1 + x^({n}/{n}) + O(x^(2))",
    ])
    def test_exponent(self, template):
        n = "1" * (self.LIMIT + 700)
        text = template.format(n, n=n)
        with pytest.raises(ElementSyntaxError) as info:
            parse_element(text)
        # the denominator is converted first, so it is the one blamed
        numeral = text.rfind(n) if "/{" in template else text.find(n)
        assert info.value.position == numeral - ("-" in template)
        assert f"numeral of {len(n)} digits exceeds the limit" in str(
            info.value)

    def test_zero_denominator_still_wins(self):
        with pytest.raises(ElementSyntaxError, match="zero denominator"):
            parse_element("1 + x^(" + "1" * 5000 + "/0) + O(x^(2))")

    def test_at_the_limit_parses(self):
        n = "1" * self.LIMIT
        with pytest.raises(DenominatorOverflow):
            parse_element(f"1 + x^(1/{n}) + O(x^(1))")

    @pytest.mark.parametrize("text,offset", [
        ("{}", 0), ("  {}", 2), ("1/{}", 2), (" -{}/7", 1)])
    def test_rational(self, text, offset):
        with pytest.raises(ElementSyntaxError) as info:
            parse_rational(text.format("1" * 5000))
        assert info.value.position == offset
