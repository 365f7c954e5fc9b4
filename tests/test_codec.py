"""The integer-index text codec against the Fraction reference codec.

Parsing, factoring and formatting must agree with tests/oracles.py on
every accepted input (valuation, grid, bits, precision and output text)
and, on every rejected one, in exception type, position and message.
"""

import random
import re
import sys
import tracemalloc
from fractions import Fraction as Q
from functools import partial
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2puiseux import (DEFAULT_DEN_CAP, DenominatorOverflow,
                       ElementSyntaxError, ExponentNotIncreasing, F2Series,
                       Indistinguishable, NonpositivePrecision, ParseError,
                       PuiseuxUnit, compose, decompose_raw, format_element,
                       format_unit, parse_element, puiseux, textform)
from f2puiseux.bitops import support_gcd
from f2puiseux.textform import parse_rational
from oracles import (reference_decompose_raw, reference_format_unit,
                     reference_parse_element)
from test_puiseux import LONG_GRID_ERROR, LONG_GRID_TEXT

# the grids, separators, exponent texts and malformed pool of the
# benchmark's wire workload, read from the benchmark itself
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import (DENS, _SEPARATORS as SEPARATORS,  # noqa: E402
                       Wire, _exponent as _exponent_text, _join)

HEAD_SEPARATORS = ("*", " * ", "  *")


_TOKENS = ["1", "x^(", "/", ")", "O(", "+", "*", "-", " "] + list("0123456789")


def _clip_numbers(text):
    # at most three digits per number keeps any accepted series small
    return re.sub(r"\d{4,}", lambda m: m.group()[:3], text)


_exponent = st.builds("{}{}{}".format, st.sampled_from(["", "-"]),
                      st.integers(0, 999),
                      st.one_of(st.just(""),
                                st.integers(0, 999).map("/{}".format)))
_o_term = _exponent.map("O(x^({}))".format)
# whole terms and a closing O(.) now and then, so that some sequences
# get past the syntax checks
_piece = st.one_of(st.sampled_from(_TOKENS),
                   _exponent.map("x^({})".format), _o_term)
_separator = st.sampled_from([" + ", "+", "", " * "])
_token_text = st.builds(
    lambda pieces, last: _clip_numbers("".join(pieces) + last),
    st.lists(st.builds(str.__add__, _piece, _separator), max_size=8),
    st.one_of(_o_term, _piece))


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


def _outcome(parse, render, text, **kwargs):
    try:
        a = parse(text, **kwargs)
    except (ParseError, DenominatorOverflow, Indistinguishable) as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    unit_text = render(a.unit)
    text = unit_text if a.val == 0 else f"x^({a.val}) * {unit_text}"
    return a.val, a.unit.den, a.unit.body.coeffs, a.unit.body.prec, text


def _assert_minimal(den, coeffs, prec):
    # parsing builds the unit without the constructor's stride test; it
    # must already be the unit the constructor builds
    assert support_gcd(coeffs, gcd(den, prec)) == 1
    u = PuiseuxUnit(den, F2Series(coeffs, prec))
    assert (u.den, u.body.coeffs, u.body.prec) == (den, coeffs, prec)


def _agree(text, **kwargs):
    got = _outcome(parse_element, format_unit, text, **kwargs)
    want = _outcome(reference_parse_element, reference_format_unit, text,
                    **kwargs)
    assert got == want, text
    if not isinstance(got[0], type):
        _assert_minimal(*got[1:4])
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

    @given(_token_text)
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
            parts = _wire_defect(parts, defect,
                                 rng.randrange(1, len(parts) - 2))
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
        if len(outcomes[0]) == 4:
            _assert_minimal(*outcomes[0][1:])

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

    @pytest.mark.parametrize("template,position,message", [
        ("1 + x^({}/0) + O(x^(2))", 4, "zero denominator in exponent"),
        ("1 + x^(1) + O(x^({}/0))", 12, "zero denominator in exponent"),
        ("  x^({}/0) * 1 + O(x^(2))", 2, "zero denominator in exponent")])
    def test_zero_denominator_at_the_term(self, template, position, message):
        # a zero denominator is found before the numerator is converted
        with pytest.raises(ElementSyntaxError) as info:
            parse_element(template.format("1" * (self.LIMIT + 700)))
        assert str(info.value) == f"{message} (at position {position})"

    def test_long_grid_denominator_named_by_its_digit_count(self):
        # the grid denominator, not a numeral, passes str()'s limit
        with pytest.raises(DenominatorOverflow,
                           match=f"^{LONG_GRID_ERROR}$"):
            parse_element(LONG_GRID_TEXT)

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

    @pytest.mark.parametrize("text", ["{}/0", "  {}/0", " -{}/0 "])
    def test_rational_zero_denominator(self, text):
        # blamed at position 0 whatever the blanks before it
        with pytest.raises(ElementSyntaxError) as info:
            parse_rational(text.format("1" * 5000))
        assert str(info.value) == "zero denominator (at position 0)"


# ---------------------------------------------------------------------------
# long texts: the reader's regex split, and its walk one term at a time

# separators with more of the blanks that str.strip() removes
WIDE_SEPARATORS = SEPARATORS + ("\t+\n", "\n+ ", " +\u00a0",
                                "\u2003+\u2003", "\u00a0+\t")
WIDE_HEAD_SEPARATORS = HEAD_SEPARATORS + ("\t*\n", "\u00a0*\u2003")
ARABIC_INDIC = str.maketrans("0123456789",
                             "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


def _long_parts(rng, form, terms, span=None):
    """Terms of a text with about `terms` exponents on mixed grids, their
    numerators drawn from +-span (default +-terms); a raw sum holds the
    term 1 after its negative exponents."""
    def power(e):
        text = _exponent_text(rng, e)
        # Unicode decimal digits are digits to the grammar and to int()
        return text.translate(ARABIC_INDIC) if rng.random() < 0.05 else text

    exps = sorted({Q(n, rng.choice(DENS))
                   for n in rng.sample(range(-(span or terms),
                                             span or terms), terms)}
                  | {Q(0)})
    prec = exps[-1] + Q(rng.randint(1, 24), rng.choice(DENS))
    if form == "raw":
        return ([("1" if e == 0 else power(e)) for e in exps]
                + [f"O({power(prec)})"])
    v = exps[0]
    head = "1"
    if form == "factored":
        head = f"{power(v)}{rng.choice(WIDE_HEAD_SEPARATORS)}1"
    return ([head] + [power(e - v) for e in exps[1:]]
            + [f"O({power(prec - v)})"])


def _join_wide(rng, parts):
    out = [rng.choice(("", " ", "\n")), parts[0]]
    for p in parts[1:]:
        out += [rng.choice(WIDE_SEPARATORS), p]
    out.append(rng.choice(("", "\t", "\u2003")))
    return "".join(out)


def _no_walk(*args):
    raise AssertionError("the term walk was entered")


def _count_walks(monkeypatch):
    """The argument tuples of every term walk from now on."""
    real, walks = textform._walk, []
    monkeypatch.setattr(textform, "_walk",
                        lambda *args: walks.append(args) or real(*args))
    return walks


def _wire_defect(parts, defect, mid):
    """parts with defect 0..5 of the benchmark's malformed wire inputs,
    at term mid for the defects of one body term."""
    parts = parts.copy()
    if defect == 0:
        parts[mid], parts[mid + 1] = parts[mid + 1], parts[mid]
    elif defect == 1:
        parts = parts[:-1]
    elif defect == 2:
        parts[mid] = "x^(1/0)"
    elif defect == 3:
        parts.insert(-1, "x^(1000000)")
    elif defect == 4:  # the defect of a valuation factor
        parts[0] = "x^(1/2) * x^(1)"
    else:
        bad = parts[mid]
        parts[mid] = bad.replace(")", "", 1) if ")" in bad else bad + "("
    return parts


def _numeral_position(text, numeral):
    return text.rfind(numeral) - text[:text.rfind(numeral)].endswith("-")


class TestLongTextsAgainstReference:
    @pytest.mark.parametrize("form", ("unit", "factored", "raw"))
    @pytest.mark.parametrize("terms", (256, 1024, 8192))
    def test_wellformed(self, form, terms, monkeypatch):
        rng = random.Random(f"long:{form}:{terms}")
        text = _join_wide(rng, _long_parts(rng, form, terms))
        assert all(c in text for c in ("\t", "\n", "\u00a0", "\u2003"))
        assert any(chr(c) in text for c in range(0x660, 0x66a))
        # the split takes it: the term walk is never entered
        monkeypatch.setattr(textform, "_walk", _no_walk)
        got = _agree(text)
        assert not isinstance(got[0], type)

    def test_exponents_spread_wide(self):
        # numerators over +-65536 on mixed grids: a body of millions of
        # bits that holds only 8192 terms
        rng = random.Random("long:wide")
        text = _join_wide(rng, _long_parts(rng, "factored", 8192, 65536))
        got = _agree(text)
        assert got[3] > 1 << 20

    def test_one_amid_negative_exponents(self, monkeypatch):
        text = "x^(-7/2) +\tx^-3 + x^(-2/4) +\u00a01 + x^(\u0663) + O(x^4)"
        monkeypatch.setattr(textform, "_walk", _no_walk)
        assert _agree(text)[0] == Q(-7, 2)

    @pytest.mark.parametrize("defect", range(6))
    def test_wire_defects_near_the_end(self, defect, monkeypatch):
        # the defects of test_wire_defects, a few terms before the end; a
        # bad body term (defects 0, 2, 3 and 5) sends the reader into the
        # term walk, which reads only that term and the one before it,
        # while a bad tail (1) or valuation factor (4) raises before the
        # body is split
        walks = _count_walks(monkeypatch)
        if defect in (1, 4):
            monkeypatch.setattr(textform, "_BODY_TERM", None)
        for seed in range(3):
            rng = random.Random(f"long:{defect}:{seed}")
            parts = _long_parts(rng, "unit", rng.randint(1000, 1500))
            parts = _wire_defect(parts, defect,
                                 len(parts) - rng.randint(3, 8))
            text = _join_wide(rng, parts)
            walks.clear()
            assert isinstance(_agree(text)[0], type)
            assert len(walks) == (defect not in (1, 4))
            assert all(body.count("+") <= 1 for body, *_ in walks)

    @pytest.mark.parametrize("form", ("unit", "factored", "raw"))
    def test_walk_alone_reads_wellformed_text(self, form, monkeypatch):
        # a split that never matches leaves every body to the walk, which
        # returns what the split reads
        rng = random.Random(f"walk:{form}")
        texts = [_join_wide(rng, _long_parts(rng, form, terms))
                 for terms in (1, 2, 5, 300)]
        texts += [_join(rng, _element_parts(rng, form)) for _ in range(50)]
        want = [parse_element(text) for text in texts]
        monkeypatch.setattr(textform, "_BODY_TERM", re.compile(r"(?!)"))
        for text, read in zip(texts, want):
            assert parse_element(text) == read
            assert not isinstance(_agree(text)[0], type)

    @pytest.mark.parametrize("text,position", [
        (" + 1 + O(x^2)", 0),  # before a leading term
        ("x^(a) * 1 + + O(x^2)", 11),  # after a bad valuation factor
        ("1 + x^(1 + + O(x^2)", 10),  # after a bad term
        ("1 + O(x^2) +", 12),  # a bad tail
    ])
    def test_empty_term_outranks_every_error(self, text, position):
        assert _agree(text) == (
            ElementSyntaxError, position,
            f"empty term (at position {position})")

    @pytest.mark.parametrize("template", [
        "x^({})", "x^(1/{})", "x^{}", "O(x^({}))", "x^(-{}/3) * 1",
        "x^({n}/{n})"])
    def test_long_numeral(self, template):
        # the reference's int() rejects the numeral with a bare
        # ValueError; the parser blames it at its position, as
        # TestLongNumerals pins for short texts
        n = "1" * (sys.get_int_max_str_digits() + 700)
        rng = random.Random(template)
        parts = _long_parts(rng, "unit", 2000)
        if template.startswith("O"):
            parts[-1] = template.format(n)
        elif "*" in template:
            parts[0] = template.format(n)
        else:
            parts.insert(-4, template.format(n, n=n))
        text = _join_wide(rng, parts)
        with pytest.raises(ValueError):
            reference_parse_element(text)
        with pytest.raises(ElementSyntaxError) as info:
            parse_element(text)
        assert info.value.position == _numeral_position(text, n)
        assert str(info.value) == (
            f"numeral of {len(n)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits (at position "
            f"{info.value.position})")

    @pytest.mark.parametrize("form", ("unit", "factored", "raw"))
    def test_den_cap(self, form):
        rng = random.Random(f"cap:{form}")
        parts = _long_parts(rng, form, 2000)
        text = _join_wide(rng, parts)
        assert _agree(text, den_cap=4)[0] is DenominatorOverflow
        # a term check near the end still comes before the cap
        parts[-3], parts[-2] = parts[-2], parts[-3]
        text = _join_wide(rng, parts)
        assert _agree(text, den_cap=4)[0] is ExponentNotIncreasing


RESTART_DEFECTS = ("swap", "precision", "zero", "paren", "long", "one")
LONG = "1" * (sys.get_int_max_str_digits() + 700)


def _restart_defect(parts, form, defect, where, zero="x^(1/0)"):
    """parts with defect at the first, second, middle or last body term,
    a factored text's first body term following its head; the zero
    defect writes zero."""
    parts = parts.copy()
    lo, hi = int(form == "factored"), len(parts) - 2
    i = {"first": lo, "second": lo + 1, "middle": (lo + hi) // 2,
         "last": hi}[where]
    if defect == "swap":
        j = i - 1 if i == hi else i + 1
        parts[i], parts[j] = parts[j], parts[i]
    elif defect == "precision":  # the exponent of the O(.) marker
        parts[i] = parts[-1][2:-1]
    elif defect == "zero":
        parts[i] = zero
    elif defect == "paren":
        bad = parts[i]
        parts[i] = bad.replace(")", "", 1) if ")" in bad else bad + "("
    elif defect == "long":
        parts[i] = f"x^(-{LONG}/7)" if i % 2 else f"x^(1/{LONG})"
    else:  # every text holds a 1 already
        parts.insert(i, "1")
    if where == "middle":
        parts[i] = parts[i].translate(ARABIC_INDIC)
    return parts


class TestRestartAgainstReference:
    """A body the bulk passes refuse is walked from the term before its
    first bad one; the error must be the one a walk of every term
    raises, which the reference raises."""

    @pytest.mark.parametrize("form", ("unit", "factored", "raw"))
    @pytest.mark.parametrize("den_cap", (DEFAULT_DEN_CAP, 5))
    @pytest.mark.parametrize("defect", RESTART_DEFECTS)
    def test_defect_at_each_edge(self, form, den_cap, defect, monkeypatch):
        rng = random.Random(f"restart:{form}:{den_cap}:{defect}")
        parts = _long_parts(rng, form, 60)
        clean = _agree(_join_wide(rng, parts), den_cap=den_cap)
        # within the cap the text is read; past it the planner orders
        # the exponents as Fractions
        assert (clean[0] is DenominatorOverflow) == (den_cap == 5)
        walks = _count_walks(monkeypatch)
        cases = [(where, "x^(1/0)")
                 for where in ("first", "second", "middle", "last")]
        if defect == "zero" and den_cap == 5:
            # past the cap, a negative numerator over a zero denominator
            cases += [(where, "x^(-1/0)") for where, _ in cases]
        for where, zero in cases:
            text = _join_wide(rng, _restart_defect(parts, form, defect,
                                                   where, zero))
            walks.clear()
            if defect == "long":
                # the reference's int() refuses the numeral with a bare
                # ValueError; the reader blames it at its position
                with pytest.raises(ValueError):
                    reference_parse_element(text, den_cap=den_cap)
                with pytest.raises(ElementSyntaxError) as info:
                    parse_element(text, den_cap=den_cap)
                numeral = (LONG if LONG in text
                           else LONG.translate(ARABIC_INDIC))
                assert info.value.position == _numeral_position(text,
                                                                numeral)
                assert str(info.value).startswith(
                    f"numeral of {len(LONG)} digits exceeds the limit")
            else:
                got = _agree(text, den_cap=den_cap)
                assert isinstance(got[0], type), (where, text)
                assert got[0] is not DenominatorOverflow, where
            assert len(walks) == 1, where
            assert walks[0][0].count("+") <= 1, where


def _wire_text(rng, terms, den, form):
    """An element text made as the benchmark's wire workload makes one."""
    span = 2 * terms
    rel = [Q(j, den) for j in sorted(rng.sample(range(1, span), terms - 1))]
    v = Q(rng.randint(-40, 40), rng.choice(DENS))
    if form == "raw":
        parts = ([_exponent_text(rng, v + e) for e in [Q(0)] + rel]
                 + [f"O({_exponent_text(rng, v + Q(span, den))})"])
    else:
        parts = (["1"] + [_exponent_text(rng, e) for e in rel]
                 + [f"O({_exponent_text(rng, Q(span, den))})"])
    return _join(rng, parts)


class TestWirePoolRestarts:
    # the pool items whose body the bulk passes refuse: the walk reads
    # the first bad term and the one before it, whatever the term count
    @pytest.mark.parametrize("item,error,position", [
        (35, ExponentNotIncreasing, 8841),
        (37, ElementSyntaxError, 3589),
        (38, NonpositivePrecision, 3107),
        (40, ElementSyntaxError, 511),
    ])
    def test_walk_reads_two_terms(self, item, error, position, monkeypatch):
        argv, want = Wire(0).item(item)  # items do not depend on the seed
        text = max(argv, key=len)  # the element text
        walks = _count_walks(monkeypatch)
        got = _agree(text)
        assert got[:2] == (error, position)
        assert error.__name__ == want
        assert len(walks) == 1
        assert walks[0][0].count("+") <= 1
        assert text.count("+") > 40


class TestParseMemory:
    @pytest.mark.parametrize("form", ("unit", "raw"))
    def test_peak_of_a_long_text(self, form):
        # the benchmark pool's longest text has 7586 terms on the grid 1/6
        text = _wire_text(random.Random(7586), 7586, 6, form)
        tracemalloc.start()
        try:
            parse_element(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


# ---------------------------------------------------------------------------
# the den cap: the written denominators within it, and past it


def _text(exps, aprec):
    return " + ".join([*(f"x^({e})" for e in exps), f"O(x^({aprec}))"])


class TestPastTheCap:
    """While the lcm of the written denominators stays within the cap,
    the unit grid divides it; past the cap the grid is grown from the
    exponents relative to the lowest, which may still lie within it."""

    _agree_raw = TestDecomposeRawAgainstReference._agree

    def _both(self, exps, aprec, den_cap):
        self._agree_raw(exps, aprec, den_cap=den_cap)
        return _agree(_text(exps, aprec), den_cap=den_cap)

    def test_answer_past_the_cap(self):
        exps, aprec = [Q(1, 97), Q(98, 97)], Q(195, 97)
        got = self._both(exps, aprec, 50)
        assert got[4] == "x^(1/97) * 1 + x^(1) + O(x^(2))"
        assert format_element(decompose_raw(exps, aprec, den_cap=50)) == got[4]

    @pytest.mark.parametrize("exps,aprec,den_cap,den", [
        # the first relative denominator past the cap at the second term
        ((Q(1, 97), Q(2, 97), Q(99, 97)), Q(195, 97), 50, 97),
        # at the last term
        ((Q(1, 97), Q(98, 97), Q(2)), Q(3) + Q(1, 97), 50, 97),
        # only in the precision term
        ((Q(1, 97), Q(98, 97)), Q(3), 50, 97),
        # relative denominators 3 and 4, each within the cap, their lcm not
        ((Q(1, 97), Q(1, 97) + Q(1, 3), Q(1, 97) + Q(5, 4)),
         Q(1, 97) + 2, 11, 12),
    ])
    def test_refusal_past_the_cap(self, exps, aprec, den_cap, den):
        assert lcm(aprec.denominator, *(e.denominator for e in exps)) > den_cap
        assert self._both(exps, aprec, den_cap) == (
            DenominatorOverflow, None,
            f"grid denominator {den} exceeds the cap {den_cap}")

    @pytest.mark.parametrize("text,error,position", [
        ("x^(1/97) + x^(3/97) + x^(2/97) + O(x^(5))",
         ExponentNotIncreasing, 22),
        ("x^(1/97) + x^(3/97) + x^(6/194) + O(x^(5))",
         ExponentNotIncreasing, 22),
        ("x^(1/97) + 1 + O(x^(5))", ExponentNotIncreasing, 11),
        ("x^(1/97) + x^(3/97) + O(x^(3/97))", NonpositivePrecision, 11),
        ("x^(1/97) + x^(1/0) + x^(3/97) + O(x^(5))", ElementSyntaxError, 11),
        ("x^(1/97) + x^(2/97) + 1 + O(x^(5))", ExponentNotIncreasing, 22),
        ("x^(1/97) + x^(2/97) +  + O(x^(5))", ElementSyntaxError, 21),
        # a zero denominator after a swapped pair: the swap comes first
        ("x^(1/97) + x^(3/97) + x^(2/97) + x^(-1/0) + O(x^(5))",
         ExponentNotIncreasing, 22),
        # one before a swapped pair: the zero denominator comes first,
        # however the written denominators are visited
        ("x^(-1/0) + x^(1/97) + x^(2/89) + x^(3/83) + x^(4/79) + x^(5/73)"
         " + x^(7/67) + x^(6/61) + O(x^(5))", ElementSyntaxError, 0),
    ])
    def test_term_errors_win_past_the_cap(self, text, error, position):
        got = _agree(text, den_cap=50)
        assert got[:2] == (error, position)

    def test_raw_errors_win_past_the_cap(self):
        # a term at the precision, then a list that cancels to nothing
        self._agree_raw([Q(1, 97), Q(3, 89), Q(5)], 5, den_cap=50)
        with pytest.raises(ValueError, match="beyond the precision"):
            decompose_raw([Q(1, 97), Q(3, 89), Q(5)], 5, den_cap=50)
        exps = [Q(1, 97), Q(2, 89), Q(2, 89), Q(1, 97)]
        self._agree_raw(exps, 5, den_cap=50)
        with pytest.raises(Indistinguishable):
            decompose_raw(exps, 5, den_cap=50)

    @pytest.mark.parametrize("den_cap", (DEFAULT_DEN_CAP, 100))
    def test_farey_neighbours_in_any_order(self, den_cap):
        # neighbours in the Farey sequence of order 12 lie 1/(d * d')
        # apart, the least gap that decompose_raw's sort must resolve
        exps = sorted({Q(n, d) for d in range(1, 13) for n in range(d)})
        random.Random("farey").shuffle(exps)
        self._agree_raw(exps, 1, den_cap=den_cap)

    def test_both_sides_of_the_switch(self):
        # a lowest exponent on a fine grid over relative exponents on a
        # coarse one, under caps on both sides of either grid
        seen = set()
        rng = random.Random("switch")
        for _ in range(400):
            low = Q(rng.randint(-300, 300), rng.choice((1, 5, 13, 97, 1024)))
            den = rng.choice((1, 2, 3, 4, 6, 13, 60))
            rel = sorted({Q(rng.randint(1, 40), den)
                          for _ in range(rng.randint(0, 6))})
            aprec = low + max(rel, default=0) + Q(rng.randint(1, 9),
                                                  rng.choice((1, den, 7)))
            exps = [low, *(low + e for e in rel)]
            den_cap = rng.randint(1, 120)
            self._agree_raw(exps, aprec, den_cap=den_cap)
            parts = [*map(partial(_exponent_text, rng), exps),
                     f"O({_exponent_text(rng, aprec)})"]
            got = _agree(_join(rng, parts), den_cap=den_cap)
            big = lcm(aprec.denominator, *(e.denominator for e in exps))
            seen.add((big > den_cap, got[0] is DenominatorOverflow))
        # answers and refusals, with the written grid within and past the cap
        assert seen == {(False, False), (True, False), (True, True)}


def _primes_above(n, count):
    sieve = bytearray([1]) * (12 * count + n)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p in range(n + 1, len(sieve)) if sieve[p]][:count]
    assert len(primes) == count
    return primes


class TestBoundedRefusal:
    """4000 terms x^((i*p + 1)/p), each on its own prime p above 10007:
    the unit grid is the product of the primes, 17753 digits long, and
    the refusal comes before any index or bit on it exists."""

    ERROR = "grid denominator <17753 digits> exceeds the cap 65536"
    EXPS = [Q(i * p + 1, p)
            for i, p in enumerate(_primes_above(10007, 4000), 1)]

    @pytest.mark.parametrize("route", ("parse_element", "decompose_raw"))
    def test_refused_in_small_memory(self, route):
        if route == "parse_element":
            call = partial(parse_element, _text(self.EXPS, 4002))
        else:
            call = partial(decompose_raw, self.EXPS, 4002)
        tracemalloc.start()
        try:
            with pytest.raises(DenominatorOverflow) as info:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == self.ERROR
        assert peak < 2 << 20

    @pytest.mark.parametrize("call", (
        lambda exps: parse_element(_text(exps, 4002)),
        lambda exps: decompose_raw(exps, 4002)),
        ids=("parse_element", "decompose_raw"))
    def test_written_grid_stops_past_the_cap(self, call, monkeypatch):
        # the lcm of the written denominators stops at its first partial
        # product past the cap, two primes and perhaps the 1 in; only
        # the unit grid takes every term and the precision
        sizes = []

        def counting_lcm(*args):
            sizes.append(len(args))
            return lcm(*args)

        monkeypatch.setattr(puiseux, "lcm", counting_lcm)
        with pytest.raises(DenominatorOverflow) as info:
            call(self.EXPS)
        assert str(info.value) == self.ERROR
        assert sizes[-1] == 4001 and sizes[:-1] in ([2, 2], [2, 2, 2])
