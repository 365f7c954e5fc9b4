import threading

import pytest

from oracles import reference_prime_power_scan

from f2puiseux import finfield
from f2puiseux import (FqVerdict, OutOfRange, PrimePower,
                       elementary_abelian_oracle, linear_space_verdict,
                       lucas_lehmer, mersenne_exponent, prime_power_scan)
from f2puiseux.finfield import trial_division_prime


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
                (lambda: finfield.is_prime(10 ** 5000 + 1), OutOfRange,
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
            finfield.is_prime(10 ** 39 + 1)

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

    def test_methods_cross_checked(self):
        # the all-ones candidates below 2^21, by both routes
        for r in range(3, 21):
            m = (1 << r) - 1
            assert lucas_lehmer(r) == trial_division_prime(m)

    def test_trial_division_matches_sieve(self):
        assert all(trial_division_prime(n) == finfield.is_prime(n)
                   for n in range(5000))

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

    def test_walk_reduces_every_element(self, monkeypatch):
        # one reduction a * p' mod (q - 1) per element of Z/(q - 1), not
        # just the generator's
        calls = []

        def counting_mod(a, b):
            calls.append(a)
            return a % b

        monkeypatch.setattr(finfield, "mod", counting_mod)
        assert elementary_abelian_oracle(PrimePower(2, 13)) == FqVerdict(
            True, 8191, 1)
        assert calls == [a * 8191 for a in range(8191)]

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
        size = len(finfield._sieve)
        stored = finfield._prime_rows
        with pytest.raises(OutOfRange):
            prime_power_scan(10_000_000_000)
        with pytest.raises(OutOfRange):
            prime_power_scan(finfield._DESK_LIMIT + 1, include_oracle=False)
        assert len(finfield._sieve) == size
        assert finfield._prime_rows is stored


class TestSieveCap:
    # one doubling past 2^22 - 20 used to build a table of 8 388 570
    # bytes, twice what the desk limit needs
    @pytest.fixture
    def grown(self, monkeypatch):
        monkeypatch.setattr(finfield, "_sieve",
                            bytearray(b"\x00\x00\x01\x01"))
        finfield._grow_sieve(finfield._DESK_LIMIT - 20)
        finfield._grow_sieve(finfield._DESK_LIMIT)

    def test_growth_stops_at_the_desk_limit(self, grown):
        assert len(finfield._sieve) <= finfield._DESK_LIMIT + 1

    def test_above_the_desk_limit_still_raises(self, grown):
        # is_prime answers from the table for any index inside it
        assert finfield.is_prime(finfield._DESK_LIMIT - 3)
        with pytest.raises(OutOfRange):
            finfield.is_prime(finfield._DESK_LIMIT + 1)


class TestScanAgainstReference:
    """The scan walks the sieve's primes, merges in the proper powers and
    shares verdict values; the reference factors every integer in turn
    and builds each row afresh.  Each test starts from the smallest
    sieve and an empty row store, so the scans also grow both on the
    way."""

    @pytest.fixture(autouse=True)
    def fresh_sieve(self, monkeypatch):
        monkeypatch.setattr(finfield, "_sieve",
                            bytearray(b"\x00\x00\x01\x01"))
        monkeypatch.setattr(finfield, "_prime_rows", [])

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


def primes_to(limit):
    return [q for q in range(2, limit + 1) if trial_division_prime(q)]


def row(pp):
    return pp.p, pp.n, pp.q, hash(pp), repr(pp)


class TestPrimeRowStore:
    """Scans share the rows of the primes through one store that only
    scans grow; each test starts from an empty store."""

    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(finfield, "_prime_rows", [])

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
        assert [pp.q for pp in finfield._prime_rows] == primes_to(32769)
        assert all(pp.n == 1 for pp in finfield._prime_rows)

    def test_sieve_growth_adds_no_rows(self, monkeypatch):
        monkeypatch.setattr(finfield, "_sieve",
                            bytearray(b"\x00\x00\x01\x01"))
        assert finfield.is_prime(4_000_037)
        assert PrimePower(4_000_037, 1).q == 4_000_037
        assert len(finfield._sieve) > 4_000_037
        assert finfield._prime_rows == []

    def test_concurrent_scans_from_an_empty_store(self, monkeypatch):
        monkeypatch.setattr(finfield, "_sieve",
                            bytearray(b"\x00\x00\x01\x01"))
        results = {}

        def scan(q_max):
            results[q_max] = prime_power_scan(q_max)

        threads = [threading.Thread(target=scan, args=(q_max,))
                   for q_max in (30000, 70000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for q_max in (30000, 70000):
            assert results[q_max] == reference_prime_power_scan(q_max)
        # a smaller store never replaces a larger one
        assert [pp.q for pp in finfield._prime_rows] == primes_to(70000)


class TestOracleBitSplit:
    """An even q - 1 loses its power of 2 by its lowest set bit; an odd
    one is still factored by trial division."""

    def test_matches_reference_to_2_16(self):
        for pp, _, want in reference_prime_power_scan(1 << 16):
            assert elementary_abelian_oracle(pp) == want, pp.q

    @pytest.mark.parametrize("q", [3, 5, 17, 257, 65537])
    def test_order_a_power_of_2(self, q, monkeypatch):
        # q - 1 = 2**m: the walk runs with p' = 2 and stops at the first
        # element whose order does not divide 2, unless the group is Z/2
        calls = []

        def counting_mod(a, b):
            calls.append(a)
            return a % b

        monkeypatch.setattr(finfield, "mod", counting_mod)
        want = FqVerdict(True, 2, 1) if q == 3 else FqVerdict(False)
        assert elementary_abelian_oracle(PrimePower(q, 1)) == want
        assert calls == [0, 2]
