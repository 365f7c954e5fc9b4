"""A smoke check that needs nothing beyond the standard library.

Run it from the repository root on any supported interpreter:

    PYTHONPATH=src python tests/smoke.py

It replays the golden CLI transcripts of tests/cli_golden.json through
`cli.main`, runs the four demos, checks powers a**(p/k) from
`series._power` against the 2-adic coordinates of tests/oracles.py
(also for p at or above 2**s and k = 3**2000), checks odd roots from
`series._power`, `unit_root` and the scalar action by 1/k against the
linear lifting of tests/oracles.lifted_root, checks unit equality
against the exponent sets of tests/oracles.reference_units_agree on
seeded twins and, under a 1 MiB allocation bound, on the coprime grids
1/65536 and 1/65535,
checks `bitops.clmul` against a plain shift-and-XOR product on both
sides of each comb cutoff and of the window switch, checks one 4-bit
comb product at stride 3 against schoolbook convolution, and checks the
element reader against the reference parser on wire-shaped texts:
well-formed, with each defect of the benchmark's malformed inputs and
with an empty term, with a bad term 0 or 1 (where the reader's walk
starts at the text's first term), and past the den cap.  From an
empty store of prime-power rows, it grows the store one q_max at a
time (2 to 40, 8190 to 8194, and 2**16 - 1 to 2**16 + 1); each growth
sieves to its q_max, reads the sieve through a strided memoryview and
fills each row's slots through their member descriptors.  It checks
each step's scan against the reference scan, the stored q's against
the reference's prime powers, and each stored row against one from
the public constructor.  It checks the field scan against the
reference scan around 2**13, with and without the oracle, its rows
against rows from the public constructor, and the oracle at q = 2**13,
2**17 and 2**18.  It checks is_space, scalar_order and dim of both
census routes against tests/oracles.field_oracle, which multiplies in
F_q itself, on every prime power q <= 2**13.  It checks each of the
seven value types for its repr, equality with a twin, its hash or
unhashability, and copy, deepcopy and pickle round trips.  It also
runs the first 200 seeded command lines of tests/argv_fuzz.py, which
the Tier-1 suite runs 1000 of, and checks that each ends in output, one
diagnostic or a usage error, never a traceback, and that importing the
command loads neither `dataclasses` nor `inspect`.
It prints one line per part and exits 1 if any part fails.  pytest
does not collect this file; the Tier-1 suite covers the same ground
where pytest is installed.
"""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from f2puiseux import (AxiomCheck, AxiomReport, DenominatorOverflow,
                       F2Series, FqVerdict, L0Element, ParseError, PrimePower,
                       PuiseuxUnit, bitops, elementary_abelian_oracle,
                       parse_element, prime_power_scan, scalar_mul_unit,
                       series, unit_root, units_agree)
from f2puiseux import finfield

from argv_fuzz import broken_rule, draws, transcript
from oracles import (bits_to_coeffs, coeffs_to_bits, convolve_mod2,
                     coordinates_match, field_oracle, lifted_root,
                     reference_parse_element, reference_prime_power_scan,
                     reference_spread, reference_units_agree,
                     unit_coordinates)

ROOT = Path(__file__).resolve().parents[1]


def golden():
    cases = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    bad = [c["argv"] for c in cases if transcript(c["argv"]) != c]
    return len(cases), bad


def demos():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    paths = sorted((ROOT / "demos").glob("*.py"))
    bad = [p.name for p in paths
           if subprocess.run([sys.executable, str(p)], capture_output=True,
                             env=env, timeout=60).returncode]
    return len(paths), bad


def powers():
    # k times the coordinates of a**(p/k) are p times those of a; besides
    # small p and k, exponents at or above the exponent 2**s of the units
    # and the root index 3**2000, from precision 1 up
    rng = random.Random(12)
    cases, bad = 0, []
    for prec in (1, 2, 3, 63, 64, 65, 256, 257, 1025, 4097):
        mod = 1 << (prec - 1).bit_length()
        pairs = [(rng.randrange(-20, 21), rng.randrange(1, 50, 2))
                 for _ in range(40)]
        pairs += [(rng.randrange(mod, 4 * mod), 1) for _ in range(4)]
        pairs += [(3 ** 2000, 1), (-(3 ** 2000), 7), (1, 3 ** 2000),
                  (-5, 3 ** 2000)]
        for p, k in pairs:
            a = rng.getrandbits(prec) | 1
            got = unit_coordinates(series._power(a, p, k, prec), prec)
            want = unit_coordinates(a, prec)
            cases += 1
            if not coordinates_match({n: k * c for n, c in got.items()},
                                     {n: p * c for n, c in want.items()},
                                     prec):
                bad.append((prec, p, k))
    return cases, bad


def odd_roots():
    # a**(1/k) from _power, unit_root and the scalar action by 1/k
    # against linear lifting, which never inverts k modulo 2**s
    rng = random.Random(13)
    cases, bad = 0, []
    for prec in (1, 2, 3, 31, 64, 65, 128):
        for k in (1, 3, 5, 7, 15, 31):
            bits = rng.getrandbits(prec) | 1
            u = PuiseuxUnit(rng.choice((1, 2, 3)), F2Series(bits, prec))
            den, body = u.den, u.body
            want = lifted_root(body.coeffs, k, body.prec)
            roots = (unit_root(u, k), scalar_mul_unit(Fraction(1, k), u))
            cases += 1
            if series._power(body.coeffs, 1, k, body.prec) != want or any(
                    (r.den, r.body.coeffs, r.body.prec)
                    != (den, want, body.prec) for r in roots):
                bad.append((prec, k))
    return cases, bad


def unit_equality():
    # pairs on grids up to 1/12, half of them a unit and its twin
    # re-gridded by m at a precision index that may truncate it or block
    # normalization, a third of the twins one bit off, against the
    # exponent sets; then the coprime grids 1/65536 and 1/65535, 4096
    # steps each, under 1 MiB: the common grid would spread each body to
    # 2.7e8 bits
    rng = random.Random(18)
    cases, bad = 0, []
    for _ in range(2000):
        u = PuiseuxUnit(rng.randint(1, 12),
                        F2Series(rng.getrandbits(16) | 1, rng.randint(1, 16)))
        m = rng.randint(1, 4)
        den, prec = u.den * m, rng.randint(1, u.body.prec * m + 3)
        bits = reference_spread(u.body.coeffs, m) & (1 << prec) - 1
        if prec > 1 and rng.random() < 0.3:
            bits ^= 1 << rng.randrange(1, prec)
        v = PuiseuxUnit(den, F2Series(bits, prec))
        if rng.random() < 0.5:
            v = PuiseuxUnit(rng.randint(1, 12),
                            F2Series(rng.getrandbits(16) | 1, 16))
        cases += 1
        if units_agree(u, v) != reference_units_agree(u, v):
            bad.append((u.den, u.body.coeffs, v.den, v.body.coeffs))
    u, v = (PuiseuxUnit(den, F2Series(rng.getrandbits(4096) | 1, 4096))
            for den in (1 << 16, (1 << 16) - 1))
    tracemalloc.start()
    try:
        agree = units_agree(u, v), units_agree(u, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cases += 1
    if agree != (False, True) or peak >= 1 << 20:
        bad.append(("65536/65535", agree, peak))
    return cases, bad


def shift_xor(a, b, m):
    """a * spread(b, m): one copy of a per set bit of b, shifted by m."""
    out = 0
    for j, digit in enumerate(reversed(bin(b)[2:])):
        if digit == "1":
            out ^= a << m * j
    return out


def comb_switch(length):
    """The fewest set bits from which clmul walks a length-bit operand
    with a comb."""
    return next(n for n in range(1, length + 1) if bitops._comb_window(
        (1 << (n - 1)) - 1 | 1 << (length - 1)))


def kernel():
    # walked operands just below, at and above the window switch, with
    # set bits at each comb cutoff and one either side; b is walked at
    # the stride, and in the swap a sparser a against spread(b, m)
    rng = random.Random(14)
    wide = bitops._WIDE_BITS
    cases, bad = 0, []
    for length in (200, 512, wide - 1, wide, wide + 1, 4 * wide):
        for weight in (c + d for c in (comb_switch(length) - 1,
                                       bitops._COMB_CUTOFF)
                       for d in (-1, 0, 1)):
            walked = sum(1 << j for j in rng.sample(range(1, length - 1),
                                                    weight - 2))
            walked |= 1 | 1 << (length - 1)
            dense = rng.getrandbits(length + 40) | (1 << 200) - 1
            for m in (1, 2, 3, 8, 9, 64):
                cases += 2
                if bitops.clmul(dense, walked, stride=m) != shift_xor(
                        dense, walked, m):
                    bad.append((length, weight, m))
                if bitops.clmul(walked, dense, stride=m) != shift_xor(
                        walked, dense, m):
                    bad.append((length, weight, m, "swap"))
    return cases, bad


def comb_stride3():
    # a walked operand that takes the 4-bit comb, every hex digit in it,
    # times a denser one at stride 3, against convolution
    a = random.Random(16).getrandbits(300) | 1
    b = int("fedcba9876543210" * 2, 16)
    want = coeffs_to_bits(convolve_mod2(
        bits_to_coeffs(a, a.bit_length()),
        bits_to_coeffs(reference_spread(b, 3), 3 * b.bit_length())))
    ok = (bitops._comb_window(b) == 4
          and bitops.clmul(a, b, stride=3) == want)
    return 1, [] if ok else [(a.bit_length(), b.bit_length(), 3)]


def wire_text(rng, defect, blanks, at=None):
    """A unit, factored or raw element text shaped like the wire
    workload's, with its defect 0..5 (None for none) or, for defect 6,
    an empty term; separators with Unicode blanks when blanks is set.
    A defect of one body term lies at term at, or at a drawn one."""
    den, terms = rng.choice((1, 2, 3, 4, 6, 8, 12)), rng.randint(4, 40)
    v = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
    exps = [Fraction(j, den) for j in sorted(rng.sample(range(1, 2 * terms),
                                                        terms - 1))]
    prec = Fraction(2 * terms, den)

    def power(e):
        k = rng.choice((1, 1, 1, 2, 3))  # an unreduced fraction now and then
        if e.denominator == 1 and k == 1 and rng.random() < 0.5:
            return f"x^{e.numerator}"
        return f"x^({e.numerator * k}/{e.denominator * k})"

    form = "unit" if defect is not None else rng.choice(("unit", "factored",
                                                         "raw"))
    if form == "raw":
        parts = [power(v + e) for e in [0, *exps, prec]]
    else:
        parts = ["1"] + [power(e) for e in exps] + [power(prec)]
        if form == "factored":
            parts[0] = f"{power(v)}{rng.choice(('*', ' * ', ' *'))}1"
    parts[-1] = f"O({parts[-1]})"
    mid = rng.randrange(1, len(parts) - 2) if at is None else at
    if defect == 0:
        parts[mid], parts[mid + 1] = parts[mid + 1], parts[mid]
    elif defect == 1:
        parts.pop()
    elif defect == 2:
        parts[mid] = "x^(1/0)"
    elif defect == 3:
        parts.insert(-1, "x^(1000000)")
    elif defect == 4:
        parts[0] = "x^(1/2) * x^(1)"
    elif defect == 5:  # an unbalanced parenthesis
        bad = parts[mid]
        parts[mid] = bad.replace(")", "", 1) if ")" in bad else bad + "("
    elif defect == 6:
        parts.insert(rng.randrange(len(parts) + 1), "")
    seps = (" + ", "+", "  +   ", " +", "+ ")
    if blanks:
        seps += ("\t+\n", " +\u00a0", "\u2003+\u2003")
    out = rng.choice(("", " ")) + parts[0]
    for part in parts[1:]:
        out += rng.choice(seps) + part
    return out


def outcome(parse, text, den_cap):
    try:
        a = parse(text, den_cap=den_cap)
    except (ParseError, DenominatorOverflow) as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    return a.val, a.unit.den, a.unit.body.coeffs, a.unit.body.prec


def reader():
    # 40 texts per defect and 40 well-formed ones, a quarter of them
    # with Unicode blanks, against the reference parser; then the edges
    # of the walk's restart one term before the first bad one: a bad
    # term 0 or 1, and every defect past the den cap
    rng = random.Random(17)
    texts = [(wire_text(rng, defect, i % 4 == 0), 1 << 16)
             for defect in (None, *range(7)) for i in range(40)]
    texts += [(wire_text(rng, defect, True, at), 1 << 16)
              for defect in (0, 2, 5) for at in (0, 1) for _ in range(10)]
    texts += [(wire_text(rng, defect, i % 4 == 0), 1)
              for defect in (None, *range(7)) for i in range(10)]
    bad = [text[:60] for text, den_cap in texts
           if outcome(parse_element, text, den_cap)
           != outcome(reference_parse_element, text, den_cap)]
    return len(texts), bad


def row(pp):
    # every slot: a slotted row holds no other attribute
    return pp, hash(pp), repr(pp), type(pp), pp.p, pp.n, pp.q


def census():
    # from an empty row store, the store grown one q_max at a time
    # across the edges of its growth (2 is taken apart, the odd
    # candidates are read with a stride, the proper powers come from
    # the primes up to the root): each step's scan
    # against the reference, the store's rows against the reference's
    # prime powers and against constructed rows.  Then scans with and
    # without the oracle against the reference, the scan's rows against
    # constructed ones, and the oracle's walk over the 8191 and 131071
    # elements of two Mersenne orders; the descending scans take
    # prefixes of the stored rows
    finfield._store = (1, [])
    steps = [*range(2, 41), *range(8190, 8195),
             (1 << 16) - 1, 1 << 16, (1 << 16) + 1]
    bad = []
    for q_max in steps:
        want = reference_prime_power_scan(q_max)
        if prime_power_scan(q_max) != want or [
                pp.q for pp in finfield._store[1]] != [
                pp.q for pp, _, _ in want] or any(
                row(pp) != row(PrimePower(pp.p, pp.n))
                for pp in finfield._store[1]):
            bad.append(("growth", q_max))
    scans = [(q_max, include_oracle)
             for q_max in (2, 3, 4, 8191, 8192, 8193,
                           8193, 8192, 8191, 4, 3, 2)
             for include_oracle in (True, False)]
    for q_max, include_oracle in scans:
        rows = prime_power_scan(q_max, include_oracle=include_oracle)
        if rows != reference_prime_power_scan(
                q_max, include_oracle=include_oracle) or any(
                row(pp) != row(PrimePower(pp.p, pp.n)) for pp, _, _ in rows):
            bad.append((q_max, include_oracle))
    answers = ((13, FqVerdict(True, 8191, 1)),
               (17, FqVerdict(True, 131071, 1)), (18, FqVerdict(False)))
    bad += [(2, n) for n, want in answers
            if elementary_abelian_oracle(PrimePower(2, n)) != want]
    return len(steps) + len(scans) + len(answers), bad


def field_census():
    # is_space, scalar_order and dim of both routes against the oracle
    # that multiplies in F_q itself, on every prime power up to 2**13;
    # the Tier-1 suite runs the same check
    rows = prime_power_scan(1 << 13)
    bad = []
    for pp, verdict, oracle in rows:
        want = field_oracle(pp.p, pp.n)
        if any((got.is_space, got.scalar_order, got.dim)
               != (want.is_space, want.scalar_order, want.dim)
               for got in (verdict, oracle)):
            bad.append(pp.q)
    return len(rows), bad


def value_types():
    # each type built twice, with its repr; the algebra types compare by
    # truncation and have no hash, the others hash as their field tuple
    def unit():
        return PuiseuxUnit(4, F2Series(0b10001, 8))

    def check():
        return AxiomCheck("assoc", 3, 1, "x^(1) * 1 + O(x^(2))")

    makers = (
        (lambda: F2Series(0b1011, 6), "F2Series(1 + t + t^3 + O(t^6))"),
        (unit, "PuiseuxUnit(1 + x^(1) + O(x^(2)))"),
        (lambda: L0Element(Fraction(-1, 3), unit()),
         "L0Element(x^(-1/3) * PuiseuxUnit(1 + x^(1) + O(x^(2))))"),
        (lambda: PrimePower(2, 7), "PrimePower(p=2, n=7)"),
        (lambda: FqVerdict(True, 127, 1),
         "FqVerdict(is_space=True, scalar_order=127, dim=1)"),
        (check, "AxiomCheck(name='assoc', checked=3, failures=1, "
                "first_counterexample='x^(1) * 1 + O(x^(2))')"),
        (lambda: AxiomReport("vector_space", 5, 3, Fraction(4),
                             (("bound", 6),), 0, (check(),)),
         "AxiomReport(kind='vector_space', seed=5, samples=3, "
         "aprec=Fraction(4, 1), params=(('bound', 6),), skipped=0, "
         f"checks=({check()!r},))"),
    )
    twins = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    bad = []
    for make, text in makers:
        x, twin = make(), make()
        if isinstance(x, (F2Series, PuiseuxUnit, L0Element)):
            try:
                hash(x)
                hash_ok = False
            except TypeError:
                hash_ok = True
        else:
            hash_ok = hash(x) == hash(twin) == hash(
                tuple(getattr(x, name) for name in x.__match_args__))
        if not (repr(x) == text and x == twin and not x != twin and hash_ok
                and all(type(t(x)) is type(x) and t(x) == x for t in twins)):
            bad.append(type(x).__name__)
    return len(makers), bad


def footprint():
    # importing the command leaves these modules out; -S keeps site
    # hooks out of the count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    unwanted = ("dataclasses", "inspect")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, f2puiseux.cli; "
         f"print(*(m for m in {unwanted!r} if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    loaded = proc.stdout.split() if proc.returncode == 0 else unwanted
    return len(unwanted), [m for m in unwanted if m in loaded]


def argv_fuzz():
    argvs = draws(1, 200)
    return len(argvs), [argv for argv in argvs if broken_rule(argv)]


if __name__ == "__main__":
    failed = False
    for name, part in (("golden transcripts", golden), ("demos", demos),
                       ("powers against coordinates", powers),
                       ("odd roots against linear lifting", odd_roots),
                       ("unit equality against exponent sets",
                        unit_equality),
                       ("clmul against shift-and-XOR", kernel),
                       ("4-bit comb at stride 3 against convolution",
                        comb_stride3),
                       ("element reader against the reference parser",
                        reader),
                       ("field scan against the reference scan", census),
                       ("both census routes against the field oracle",
                        field_census),
                       ("value types: repr, equality, hash, copy, pickle",
                        value_types),
                       ("seeded command lines without a traceback",
                        argv_fuzz),
                       ("import without dataclasses or inspect",
                        footprint)):
        total, bad = part()
        failed |= bool(bad)
        print(f"{name}: {total - len(bad)} of {total} pass"
              + (f"; failing: {bad[:5]}" if bad else ""))
    sys.exit(1 if failed else 0)
