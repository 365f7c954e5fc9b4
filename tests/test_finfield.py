import random
import re
import sys
import threading
from bisect import bisect_right

import pytest

from oracles import (field, field_oracle, field_power, first_irreducible,
                     packed_field, reference_prime_power_scan)

from f2puiseux import finfield
from f2puiseux import (FqVerdict, OutOfRange, PrimePower,
                       elementary_abelian_oracle, linear_space_verdict,
                       lucas_lehmer, mersenne_exponent, prime_power_scan)
from f2puiseux.finfield import trial_division_prime


@pytest.fixture
def empty_store(monkeypatch):
    """An empty prime-power row store for the test to grow."""
    monkeypatch.setattr(finfield, "_store", (1, []))


@pytest.fixture
def mod_calls(monkeypatch):
    """The first argument of every reduction the oracle makes."""
    calls = []
    monkeypatch.setattr(finfield, "mod",
                        lambda a, b: calls.append(a) or a % b)
    return calls


class TestPrimePower:
    def test_fields(self):
        pp = PrimePower(2, 3)
        assert pp.q == 8

    def test_prime_verified(self):
        with pytest.raises(ValueError):
            PrimePower(6, 2)
        with pytest.raises(ValueError):
            PrimePower(1, 1)

    def test_q_computed_once_per_row(self):
        # both verdict routes read q; p ** n runs for the first read only
        powers = []

        class CountingPrime(int):
            def __pow__(self, n):
                powers.append(n)
                return int(self) ** n

        pp = PrimePower(CountingPrime(2), 7)
        assert linear_space_verdict(pp) == elementary_abelian_oracle(pp)
        assert pp.q == 128 and powers == [7]
        assert pp == PrimePower(2, 7) and repr(pp) == "PrimePower(p=2, n=7)"

    def test_scan_rows_hold_q(self):
        # the scan builds its rows without the constructor's checks; each
        # still equals the constructed row, q = p ** n included; a
        # slotted row holds no attribute beyond its type's slots
        for pp, _, _ in prime_power_scan(5000, include_oracle=False):
            built = PrimePower(pp.p, pp.n)
            assert pp == built and hash(pp) == hash(built)
            assert repr(pp) == repr(built) and type(pp) is type(built)
            assert (pp.p, pp.n, pp.q) == (built.p, built.n, built.q)

    def test_from_q(self):
        assert PrimePower.from_q(243) == PrimePower(3, 5)
        assert PrimePower.from_q(17) == PrimePower(17, 1)
        with pytest.raises(ValueError):
            PrimePower.from_q(12)
        with pytest.raises(ValueError):
            PrimePower.from_q(1)

    def test_long_numbers_named_by_their_digit_count(self):
        # str() of an int of over 4300 digits raises, so each message
        # counts the digits of a long number instead of printing it
        for call, error, message in (
                (lambda: PrimePower.from_q(3 * 10 ** 5000), ValueError,
                 "<5001 digits> is not a prime power"),
                (lambda: PrimePower.from_q(-10 ** 5000), ValueError,
                 "-<5001 digits> is not a prime power"),
                (lambda: PrimePower(2, -10 ** 5000), ValueError,
                 "exponent must be >= 1, got -<5001 digits>"),
                (lambda: PrimePower(10 ** 5000 + 1, 1), OutOfRange,
                 "primality of <5001 digits> is beyond the desk-scale "
                 "limit"),
                (lambda: prime_power_scan(10 ** 5000), OutOfRange,
                 f"q_max = <5001 digits> exceeds the desk-scale limit "
                 f"{finfield._DESK_LIMIT}"),
                (lambda: elementary_abelian_oracle(PrimePower(2, 20000)),
                 OutOfRange, f"q = <6021 digits> exceeds the oracle bound "
                             f"{finfield._DESK_LIMIT}")):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error
            assert str(info.value) == message

    def test_short_numbers_keep_their_text(self):
        with pytest.raises(ValueError, match="^12 is not a prime power$"):
            PrimePower.from_q(12)
        with pytest.raises(ValueError, match="^4 is not prime$"):
            PrimePower(4, 1)
        with pytest.raises(OutOfRange,
                           match=f"^primality of {10 ** 39 + 1} is beyond"):
            PrimePower(10 ** 39 + 1, 1)

    def test_from_q_beyond_trial_division(self):
        # an even q needs no trial division; 2^61 - 1 is a prime whose
        # square root passes the desk-scale limit
        assert PrimePower.from_q(2 ** 100) == PrimePower(2, 100)
        with pytest.raises(OutOfRange):
            PrimePower.from_q(2 ** 61 - 1)


class TestMersenneExponent:
    def test_seven(self):
        assert mersenne_exponent(7) == 3

    def test_known_small(self):
        assert mersenne_exponent(3) == 2
        assert mersenne_exponent(31) == 5
        assert mersenne_exponent(127) == 7
        assert mersenne_exponent(8191) == 13

    def test_2047_is_composite(self):
        assert 2047 == 23 * 89
        assert mersenne_exponent(2047) is None

    def test_wrong_form(self):
        assert mersenne_exponent(6) is None
        assert mersenne_exponent(2) is None
        assert mersenne_exponent(1) is None

    def test_sequence_needs_exponent_three(self):
        with pytest.raises(ValueError,
                           match="^the sequence test needs exponent >= 3$"):
            lucas_lehmer(2)

    def test_disagreeing_methods_raise(self, monkeypatch):
        # mersenne_exponent reads lucas_lehmer from its module, so a
        # wrong answer there must surface, not pass as a verdict
        monkeypatch.setattr(finfield, "lucas_lehmer", lambda r: False)
        with pytest.raises(AssertionError, match="^trial division and "
                           "Lucas-Lehmer disagree on 2\\*\\*7 - 1$"):
            mersenne_exponent(127)

    def test_methods_cross_checked(self):
        # the all-ones candidates below 2^21, by both routes
        for r in range(3, 21):
            m = (1 << r) - 1
            assert lucas_lehmer(r) == trial_division_prime(m)

    def test_trial_division_matches_sieve(self):
        # the primes below 5000 are the stored rows with n == 1, read
        # off the sieve of the store's growth
        primes = {pp.p for pp, _, _ in prime_power_scan(4999) if pp.n == 1}
        assert all(trial_division_prime(n) == (n in primes)
                   for n in range(5000))

    def test_last_exponent_within_trial_division(self):
        # 2**44 - 1 = 3 * 5 * 23 * 89 * 397 * 683 * 2113 is the largest
        # all-ones number trial division up to the desk-scale limit settles
        assert (1 << 44) - 1 <= finfield._DESK_LIMIT ** 2
        assert mersenne_exponent((1 << 44) - 1) is None

    @pytest.mark.parametrize("r", (45, 100003))
    def test_refused_past_trial_division(self, r, monkeypatch):
        # 2**45 - 1 has the small factor 7, yet no division and no
        # Lucas-Lehmer step runs past 2**44; the verdict refuses likewise
        pp = PrimePower(2, r)

        def fail(*args):
            raise AssertionError("called past the bound")

        monkeypatch.setattr(finfield, "lucas_lehmer", fail)
        monkeypatch.setattr(finfield, "_smallest_prime_factor", fail)
        message = re.escape(f"2**{r} - 1 is beyond trial division up to "
                            f"the desk-scale limit {finfield._DESK_LIMIT}")
        with pytest.raises(OutOfRange, match=message):
            mersenne_exponent((1 << r) - 1)
        with pytest.raises(OutOfRange, match=message):
            linear_space_verdict(pp)

    def test_trial_division_stops_at_the_desk_limit(self):
        # 4194301 is the largest prime at or below 2^22, 4194319 the
        # smallest above it
        limit = finfield._DESK_LIMIT
        assert 4194301 <= limit < 4194319
        assert not trial_division_prime(4194301 ** 2)
        with pytest.raises(OutOfRange):
            trial_division_prime(4194319 ** 2)


class TestVerdict:
    def test_q2_dimension_zero(self):
        assert linear_space_verdict(PrimePower(2, 1)) == FqVerdict(
            True, None, 0)

    def test_q3_over_f2(self):
        assert linear_space_verdict(PrimePower(3, 1)) == FqVerdict(True, 2, 1)

    def test_q8_over_f7(self):
        assert linear_space_verdict(PrimePower(2, 3)) == FqVerdict(True, 7, 1)

    def test_q9_no(self):
        assert linear_space_verdict(PrimePower(3, 2)) == FqVerdict(False)

    def test_mersenne_candidate_beyond_trial_division(self):
        assert linear_space_verdict(PrimePower(2, 31)) == FqVerdict(
            True, 2 ** 31 - 1, 1)
        with pytest.raises(OutOfRange):
            linear_space_verdict(PrimePower(2, 61))

    def test_odd_q_above_3_always_no(self):
        for pp, verdict, _ in prime_power_scan(2000, include_oracle=False):
            if pp.p != 2 and pp.q > 3:
                assert not verdict.is_space

    def test_dim_never_exceeds_one(self):
        for pp, verdict, _ in prime_power_scan(2000, include_oracle=False):
            if verdict.is_space and pp.q > 2:
                assert verdict.dim == 1
                assert trial_division_prime(verdict.scalar_order)


class TestOracle:
    def test_q5_order_four_element(self):
        assert elementary_abelian_oracle(PrimePower(5, 1)) == FqVerdict(False)

    def test_q4_yes_over_f3(self):
        assert elementary_abelian_oracle(PrimePower(2, 2)) == FqVerdict(
            True, 3, 1)

    def test_q2_trivial_group(self):
        assert elementary_abelian_oracle(PrimePower(2, 1)) == FqVerdict(
            True, None, 0)

    def test_mersenne_orders(self):
        assert elementary_abelian_oracle(PrimePower(2, 13)) == FqVerdict(
            True, 8191, 1)
        assert elementary_abelian_oracle(PrimePower(2, 17)) == FqVerdict(
            True, 131071, 1)
        assert elementary_abelian_oracle(PrimePower(2, 18)) == FqVerdict(
            False)

    def test_walk_reduces_every_element(self, mod_calls):
        # one reduction a * p' mod (q - 1) per element of Z/(q - 1), not
        # just the generator's
        assert elementary_abelian_oracle(PrimePower(2, 13)) == FqVerdict(
            True, 8191, 1)
        assert mod_calls == [a * 8191 for a in range(8191)]

    def test_bound_enforced(self):
        with pytest.raises(OutOfRange):
            elementary_abelian_oracle(PrimePower(2, 23))

    def test_agrees_with_closed_form_at_small_scale(self):
        for pp, verdict, oracle in prime_power_scan(4096):
            assert verdict == oracle, f"disagreement at q={pp.q}"


class TestScan:
    def test_yes_set_up_to_200(self):
        rows = prime_power_scan(200)
        yes = [pp.q for pp, verdict, _ in rows if verdict.is_space]
        assert yes == [2, 3, 4, 8, 32, 128]

    def test_minimal_scan(self):
        rows = prime_power_scan(2, include_oracle=False)
        assert len(rows) == 1
        (pp, verdict, oracle) = rows[0]
        assert pp.q == 2 and verdict == FqVerdict(True, None, 0)
        assert oracle is None

    def test_ordered_and_complete(self):
        rows = prime_power_scan(100, include_oracle=False)
        qs = [pp.q for pp, _, _ in rows]
        assert qs == sorted(qs)
        assert 64 in qs and 81 in qs and 97 in qs
        assert 6 not in qs and 12 not in qs

    def test_qmax_validated(self):
        with pytest.raises(ValueError):
            prime_power_scan(1)

    def test_qmax_above_desk_limit_rejected_before_sieve_grows(self):
        stored = finfield._store
        with pytest.raises(OutOfRange):
            prime_power_scan(10_000_000_000)
        assert finfield._store is stored


class TestSieveCap:
    """The desk-scale limit bounds the store's growth and the
    constructor's primality check."""

    def test_growth_stops_at_the_desk_limit(self):
        stored = finfield._store
        with pytest.raises(OutOfRange):
            prime_power_scan(finfield._DESK_LIMIT + 1, include_oracle=False)
        assert finfield._store is stored

    def test_above_the_desk_limit_still_raises(self, monkeypatch):
        # refused before any trial division; 4194301 is the largest
        # prime at or below 2^22, and 2^22 - 1 = 3 * 23 * 89 * 683
        def no_trial_division(n):
            raise AssertionError(f"trial division of {n}")

        assert PrimePower(4194301, 1).q == 4194301
        with pytest.raises(ValueError, match="^4194303 is not prime$"):
            PrimePower(4194303, 1)
        monkeypatch.setattr(finfield, "trial_division_prime",
                            no_trial_division)
        with pytest.raises(OutOfRange) as info:
            PrimePower(finfield._DESK_LIMIT + 1, 1)
        assert str(info.value) == (
            f"primality of {finfield._DESK_LIMIT + 1} is beyond the "
            f"desk-scale limit")


@pytest.mark.usefixtures("empty_store")
class TestScanAgainstReference:
    """The scan takes a prefix of the stored prime-power rows and shares
    verdict values; the reference factors every integer in turn and
    builds each row afresh.  Each test starts from an empty row store,
    so the scans also grow it on the way."""

    @pytest.mark.parametrize("include_oracle", [True, False])
    def test_matches_reference(self, include_oracle):
        # every q_max to 600, then around the powers of 2 and 3
        edges = {(1 << k) + d for k in range(15) for d in (-1, 0, 1)}
        edges |= {3 ** 8 - 1, 3 ** 8 + 1, *range(2, 601)}
        for q_max in sorted(e for e in edges if e >= 2):
            assert (prime_power_scan(q_max, include_oracle=include_oracle)
                    == reference_prime_power_scan(
                        q_max, include_oracle=include_oracle)), q_max

    def test_verdict_values_shared(self):
        rows = prime_power_scan(4096)
        answers = [v for _, verdict, oracle in rows for v in (verdict, oracle)]
        no = {id(v) for v in answers if not v.is_space}
        trivial = {id(v) for v in answers if v.dim == 0}
        assert len(no) == 1 and len(trivial) == 1
        assert sum(not v.is_space for v in answers) > 1000


def row(pp):
    return pp.p, pp.n, pp.q, hash(pp), repr(pp)


def stored_qs():
    return [pp.q for pp in finfield._store[1]]


def reference_qs(q_max):
    return [pp.q for pp, _, _ in reference_prime_power_scan(
        q_max, include_oracle=False)]


class CountingLock:
    """A lock that counts how often it is entered."""

    def __init__(self):
        self.lock, self.entries = threading.Lock(), 0

    def __enter__(self):
        self.entries += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


@pytest.mark.usefixtures("empty_store")
class TestPrimeRowStore:
    """Scans share the row of every prime power through one store that
    only scans grow; each test starts from an empty store."""

    def test_scans_in_any_order_match_reference(self):
        # grown, then prefixes at the bottom and the middle, then grown
        # again past a power of 2, then a prefix that ends on a prime
        for q_max in (20000, 2, 3, 4, 5000, 32769, 8191):
            for include_oracle in (True, False):
                rows = prime_power_scan(q_max, include_oracle=include_oracle)
                assert rows == reference_prime_power_scan(
                    q_max, include_oracle=include_oracle), q_max
                for pp, _, _ in rows:
                    assert row(pp) == row(PrimePower(pp.p, pp.n)), pp
        assert stored_qs() == reference_qs(32769)
        for pp in finfield._store[1]:
            assert row(pp) == row(PrimePower(pp.p, pp.n)), pp

    def test_primality_check_adds_no_rows(self):
        assert PrimePower(4_000_037, 1).q == 4_000_037
        assert finfield._store == (1, [])

    def test_concurrent_scans_from_an_empty_store(self):
        # more threads than cores, switching as often as the interpreter
        # allows, all released at once onto an empty store
        q_maxes = (70000, 2, 4096, 30000, 32768, 65537, 69999, 50000)
        want = reference_prime_power_scan(max(q_maxes))
        start = threading.Barrier(len(q_maxes))
        results = {}

        def scan(q_max):
            start.wait(timeout=60)
            results[q_max] = prime_power_scan(q_max)

        threads = [threading.Thread(target=scan, args=(q_max,), daemon=True)
                   for q_max in q_maxes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for t in threads:
            assert not t.is_alive()
        for q_max in q_maxes:
            end = bisect_right(want, q_max, key=lambda r: r[0].q)
            assert results[q_max] == want[:end], q_max
        # a smaller store never replaces a larger one, and no row is
        # stored twice
        assert stored_qs() == [pp.q for pp, _, _ in want]

    def test_repeat_scan_past_the_last_prime_keeps_the_store(self):
        # 32761 = 181**2 and no prime power lies in 32762..32767, so
        # the second scan finds nothing to add and publishes nothing
        prime_power_scan(32767, include_oracle=False)
        stored = finfield._store
        assert stored[1][-1] == PrimePower(181, 2)
        prime_power_scan(32767, include_oracle=False)
        assert finfield._store is stored

    def test_scans_within_the_reach_grow_nothing(self, monkeypatch):
        # the store records the q_max it was grown to, so scans up to
        # 32767 after the first take it without the lock, although its
        # last row is 32761; the scan to 2**15 grows it once more
        growing = CountingLock()
        monkeypatch.setattr(finfield, "_growing", growing)
        for q_max in (32767, 32767, 32762, 100, 32767):
            prime_power_scan(q_max, include_oracle=False)
        assert growing.entries == 1
        assert finfield._store[0] == 32767
        assert finfield._store[1][-1] == PrimePower(181, 2)
        prime_power_scan(1 << 15, include_oracle=False)
        assert growing.entries == 2
        assert finfield._store[0] == 1 << 15
        assert stored_qs() == reference_qs(1 << 15)

    def test_scans_share_every_row(self):
        # the proper powers are stored with the primes, not rebuilt
        first = prime_power_scan(1 << 16, include_oracle=False)
        second = prime_power_scan(1 << 16, include_oracle=False)
        assert len(first) == len(second)
        assert sum(pp.n > 1 for pp, _, _ in first) == 93
        for (a, _, _), (b, _, _) in zip(first, second):
            assert a is b, a

    def test_growth_by_single_steps_across_parity_edges(self):
        # 2 is taken apart from the odd candidates, so each step starts
        # on an even or an odd top and ends on a prime, a proper power
        # or neither
        steps = [*range(2, 41), *range(8190, 8195),
                 (1 << 16) - 1, 1 << 16, (1 << 16) + 1]
        for q_max in steps:
            rows = prime_power_scan(q_max)
            assert rows == reference_prime_power_scan(q_max), q_max
            stored = finfield._store[1]
            assert stored_qs() == [pp.q for pp, _, _ in rows], q_max
            assert all(type(pp) is PrimePower for pp in stored)
            for pp in stored:
                assert row(pp) == row(PrimePower(pp.p, pp.n)), pp
                assert pp.n > 1 or pp.p is pp.q, pp


class TestOracleBitSplit:
    """An even q - 1 loses its power of 2 by its lowest set bit; an odd
    one is still factored by trial division."""

    def test_matches_reference_to_2_16(self):
        for pp, _, want in reference_prime_power_scan(1 << 16):
            assert elementary_abelian_oracle(pp) == want, pp.q

    @pytest.mark.parametrize("q", [3, 5, 17, 257, 65537])
    def test_order_a_power_of_2(self, q, mod_calls):
        # q - 1 = 2**m: the walk runs with p' = 2 and stops at the first
        # element whose order does not divide 2, unless the group is Z/2
        want = FqVerdict(True, 2, 1) if q == 3 else FqVerdict(False)
        assert elementary_abelian_oracle(PrimePower(q, 1)) == want
        assert mod_calls == [0, 2]

    @pytest.mark.parametrize("q", [7, 11, 13, 25, 27, 49, 64, 4096, 65536])
    def test_two_primes_end_before_the_walk(self, q, mod_calls):
        # q - 1 has two distinct prime factors, an odd one beside 2 or
        # two odd ones: "no" from the factoring alone, no element reduced
        pp = PrimePower.from_q(q)
        assert elementary_abelian_oracle(pp) == FqVerdict(False)
        assert mod_calls == []


class TestFieldOracle:
    """Both census routes against an oracle that multiplies in F_q
    itself and never assumes that F_q^x is cyclic."""

    def test_both_routes_to_2_13(self):
        # the q = 2**13 row walks every element of F_8192, packed
        rows = prime_power_scan(1 << 13)
        assert len(rows) == len(reference_prime_power_scan(1 << 13)) == 1078
        for pp, verdict, oracle in rows:
            want = field_oracle(pp.p, pp.n)
            for got in (verdict, oracle):
                assert (got.is_space, got.scalar_order, got.dim) == (
                    want.is_space, want.scalar_order, want.dim), pp

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 4),
                                     (5, 3), (7, 2), (31, 2)])
    def test_fields_are_fields(self, p, n):
        # every nonzero x has x**(q - 1) = 1 only when the modulus is
        # irreducible: a factor of it would be a zero divisor
        elements, one, mul = field(p, n)
        assert all(field_power(x, p ** n - 1, one, mul) == one
                   for x in elements)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_packed_product_is_the_list_product(self, n):
        # bit i of a packed element is coefficient i of its list
        def unpack(a):
            return [a >> i & 1 for i in range(n)]

        elements, one, mul = packed_field(n)
        _, list_one, list_mul = field(2, n)
        assert unpack(one) == list_one
        rng = random.Random(n)
        for _ in range(200):
            a, b = rng.choice(elements), rng.choice(elements)
            assert unpack(mul(a, b)) == list_mul(unpack(a), unpack(b)), (a, b)
        assert all(field_power(x, (1 << n) - 1, one, mul) == one
                   for x in elements)

    def test_first_irreducibles(self):
        # x^2 + x + 1, x^3 + x + 1, x^8 + x^4 + x^3 + x + 1 over F_2 and
        # x^2 + 1 over F_3, coefficients lowest first
        assert first_irreducible(2, 2) == [1, 1, 1]
        assert first_irreducible(2, 3) == [1, 1, 0, 1]
        assert first_irreducible(2, 8) == [1, 1, 0, 1, 1, 0, 0, 0, 1]
        assert first_irreducible(3, 2) == [1, 0, 1]

    @pytest.mark.parametrize("p,n,want", [
        (2, 1, FqVerdict(True, None, 0)), (3, 1, FqVerdict(True, 2, 1)),
        (2, 2, FqVerdict(True, 3, 1)), (2, 7, FqVerdict(True, 127, 1)),
        (3, 2, FqVerdict(False)), (2, 4, FqVerdict(False)),
        (17, 1, FqVerdict(False))])
    def test_small_fields(self, p, n, want):
        assert field_oracle(p, n) == want
