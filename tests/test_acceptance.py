"""Acceptance suite.

Each test exercises one criterion at its stated scale and prints one
pass line when it holds; every comparison is exact, there are no
numeric tolerances anywhere.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction as Q
from functools import partial

import pytest

import f2puiseux.puiseux as px
from f2puiseux import (ElementSyntaxError, ExponentNotIncreasing, F2Series,
                       L0Element, NonpositivePrecision, NonUnitLeadingTerm,
                       PrimePower, PuiseuxUnit, compose, decompose,
                       element_mul, elementary_abelian_oracle, format_element,
                       kth_root_odd, linear_space_verdict, parse_element,
                       pow_int, unit_mul, unit_pow, unit_sqrt, units_agree)
from f2puiseux.axioms import (check_root_bijectivity,
                              check_vector_space_axioms, random_unit, _rng)
from f2puiseux.cli import main

from oracles import coordinate_power
from test_axioms import FAULTS


def _cli_records(capsys, *argv):
    code = main([*argv, "--format", "records"])
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def test_criterion_1_finite_field_equivalence_at_desk_scale(capsys):
    """Closed-form rule equals the brute-force oracle for all q <= 2**20."""
    started = time.perf_counter()
    code, records = _cli_records(capsys, "fq-scan", "--max", "1048576",
                                 "--oracle")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert len(records) == 82267  # prime powers up to 2**20
    yes = []
    for record in records:
        verdict = record["output"]["verdict"]
        oracle = record["output"]["oracle"]
        assert verdict == oracle, f"disagreement at q={record['input']['q']}"
        if verdict["is_space"]:
            yes.append(record["input"]["q"])
    expected = sorted([2, 3] + [2 ** r for r in (2, 3, 5, 7, 13, 17, 19)])
    assert yes == expected
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: verdict == oracle on all 82267 prime powers "
          f"<= 2^20, yes-set {yes}, {elapsed:.1f}s")


def test_criterion_2_odd_root_round_trips_and_uniqueness():
    """Odd k-th roots at prec 256: bit-exact round trips, and the root
    as an integer power agrees with the root rebuilt from 2-adic
    coordinates."""
    rng = random.Random(20240)
    odd_ks = range(1, 50, 2)
    trips = 0
    for _ in range(1000):
        bits = rng.getrandbits(256) | 1
        a = F2Series(bits, 256)
        for k in odd_ks:
            root = kth_root_odd(a, k)
            back = pow_int(root, k)
            assert back.coeffs == a.coeffs and back.prec == a.prec
            b = a
            lifted = kth_root_odd(pow_int(b, k), k)
            assert lifted.coeffs == b.coeffs and lifted.prec == b.prec
            trips += 2
    agreements = 0
    rng = random.Random(20241)
    for _ in range(100):
        a = F2Series(rng.getrandbits(256) | 1, 256)
        k = rng.choice(range(3, 50, 2))
        root = kth_root_odd(a, k)
        assert root.coeffs == coordinate_power(a.coeffs, 1, k, 256)
        agreements += 1
    print(f"\nACCEPTANCE 2 PASS: {trips} bit-exact round trips at prec 256, "
          f"integer-power root == coordinate root on {agreements} "
          f"instances")


def test_criterion_3_square_root_inverts_squaring():
    """unit_pow(unit_sqrt(u), 2) recovers u at the halved precision."""
    checked = 0
    for i in range(1000):
        u = random_unit(_rng(333, "sqrt", i), 64)
        root = unit_sqrt(u)
        assert root.aprec == u.aprec / 2
        assert units_agree(unit_pow(root, 2), u)
        checked += 1
    print(f"\nACCEPTANCE 3 PASS: sqrt then squaring returned all {checked} "
          f"units at the contracted precision, exactly")


def test_criterion_4_axiom_suite_and_fault_injection(capsys):
    """The flagged harness run is clean; seeded faults are caught."""
    code, records = _cli_records(
        capsys, "axioms", "--samples", "1000", "--aprec", "64",
        "--seed", "42", "--scalar-bound", "9")
    assert code == 0
    (record,) = records
    assert record["output"]["failures"] == 0
    assert len(record["output"]["checks"]) == 6
    assert all(c["failures"] == 0 for c in record["output"]["checks"])

    # the vector-space laws reach roots through the scalar action; the
    # bijectivity laws call unit_root directly
    vector_space = partial(check_vector_space_axioms, 200, 64, seed=42,
                           scalar_bound=9)
    bijectivity = partial(check_root_bijectivity, 10, 12, 64, seed=42)
    faults = [("unit_mul", vector_space), ("scalar_mul_unit", vector_space),
              ("decompose", vector_space), ("unit_root", bijectivity)]
    caught = []
    for name, harness in faults:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(px, name, FAULTS[name])
            report = harness()
        assert report.failures > 0, f"fault in {name} went unnoticed"
        witnesses = [c.first_counterexample for c in report.checks
                     if c.failures]
        assert any(w is not None for w in witnesses)
        caught.append(name)
    print(f"\nACCEPTANCE 4 PASS: clean run reported 0 failures across 6 "
          f"laws; injected faults caught: {', '.join(caught)}")


def test_criterion_5_torsion_freeness_and_finite_contrast(capsys):
    """No sampled unit has a trivial power; the 8-element group does."""
    code, records = _cli_records(
        capsys, "torsion", "--samples", "500", "--nmax", "64",
        "--aprec", "64", "--seed", "7")
    assert code == 0
    (record,) = records
    assert record["output"]["failures"] == 0
    (check,) = record["output"]["checks"]
    assert check["checked"] == 500 * 64

    # contrast: the multiplicative group of the 9-element field is Z/8,
    # which contains the order-2 element 4: nontrivial torsion, so it is
    # no vector space, matching the verdict for q = 9
    assert linear_space_verdict(PrimePower(3, 2)).is_space is False
    assert elementary_abelian_oracle(PrimePower(3, 2)).is_space is False
    order = 9 - 1
    torsion_witness = 4
    assert torsion_witness % order != 0
    assert (2 * torsion_witness) % order == 0
    print("\nACCEPTANCE 5 PASS: 32000 power checks off-identity; the "
          "order-2 element of Z/8 shows why q=9 is refused")


def test_criterion_6_decomposition_is_an_isomorphism():
    """decompose splits products componentwise; compose inverts it."""
    pairs = 0
    for i in range(1000):
        rng = _rng(606, "iso", i)
        a = L0Element(Q(rng.randrange(-40, 40), rng.randrange(1, 12)),
                      random_unit(rng, 64))
        b = L0Element(Q(rng.randrange(-40, 40), rng.randrange(1, 12)),
                      random_unit(rng, 64))
        val, unit = decompose(element_mul(a, b))
        assert val == a.val + b.val
        assert units_agree(unit, unit_mul(a.unit, b.unit))
        rebuilt = compose(*decompose(a))
        assert rebuilt.val == a.val
        assert rebuilt.unit.den == a.unit.den
        assert rebuilt.unit.body.coeffs == a.unit.body.coeffs
        assert rebuilt.unit.body.prec == a.unit.body.prec
        pairs += 1
    print(f"\nACCEPTANCE 6 PASS: decompose split {pairs} products "
          f"componentwise and compose inverted it exactly")


_MALFORMED = [
    ("x^(1/2) + O(x^(1/4))", NonpositivePrecision),
    ("1 + O(x^(0))", NonpositivePrecision),
    ("1 + x^(3) + O(x^(2))", NonpositivePrecision),
    ("x^(1/2) * x^(1/3) + O(x^(2))", NonUnitLeadingTerm),
    ("1 + x^(1) + x^(1) + O(x^(3))", ExponentNotIncreasing),
    ("1 + x^(2) + x^(1) + O(x^(3))", ExponentNotIncreasing),
    ("1 + x^(1/2)", ElementSyntaxError),
    ("", ElementSyntaxError),
    ("O(x^(2))", ElementSyntaxError),
    ("1 + z^(2) + O(x^(3))", ElementSyntaxError),
    ("1 + x^(1/0) + O(x^(2))", ElementSyntaxError),
    ("1 ++ x^(1) + O(x^(2))", ElementSyntaxError),
]


def test_criterion_7_parser_round_trip_and_typed_rejections():
    """1000 round trips through the text format; the corpus of bad
    inputs fails with the advertised error classes."""
    round_trips = 0
    for i in range(1000):
        rng = _rng(707, "wire", i)
        u = random_unit(rng, Q(rng.choice((16, 24, 64)), rng.choice((1, 2))))
        val = Q(rng.randrange(-60, 60), rng.randrange(1, 16))
        if rng.random() < 0.25:
            val = Q(0)
        a = compose(val, u)
        back = parse_element(format_element(a))
        assert back.val == a.val
        assert back.unit.den == a.unit.den
        assert back.unit.body.coeffs == a.unit.body.coeffs
        assert back.unit.body.prec == a.unit.body.prec
        round_trips += 1
    for text, err in _MALFORMED:
        with pytest.raises(err):
            parse_element(text)
    print(f"\nACCEPTANCE 7 PASS: {round_trips} exact parse/format round "
          f"trips; {len(_MALFORMED)} malformed inputs raised their "
          f"advertised errors")


def test_criterion_8_kernel_scaling_at_prec_2_16():
    """One product of dense units at prec 2**16 stays under a second."""
    prec = 1 << 16
    rng = random.Random(808)
    u = PuiseuxUnit(1, F2Series(rng.getrandbits(prec) | 1, prec))
    v = PuiseuxUnit(1, F2Series(rng.getrandbits(prec) | 1, prec))
    unit_mul(PuiseuxUnit(1, F2Series(rng.getrandbits(1024) | 1, 1024)),
             PuiseuxUnit(1, F2Series(rng.getrandbits(1024) | 1, 1024)))
    started = time.perf_counter()
    out = unit_mul(u, v)
    elapsed = time.perf_counter() - started
    assert out.body.prec == prec
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 8 PASS: prec 2^16 product in {elapsed:.3f}s "
          f"(< 1s budget)")
