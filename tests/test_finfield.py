import pytest

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

    def test_from_q(self):
        assert PrimePower.from_q(243) == PrimePower(3, 5)
        assert PrimePower.from_q(17) == PrimePower(17, 1)
        with pytest.raises(ValueError):
            PrimePower.from_q(12)
        with pytest.raises(ValueError):
            PrimePower.from_q(1)


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

    def test_bound_enforced(self):
        with pytest.raises(OutOfRange):
            elementary_abelian_oracle(PrimePower(2, 17), bound=1 << 16)

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
        with pytest.raises(OutOfRange):
            prime_power_scan(10_000_000_000)
        with pytest.raises(OutOfRange):
            prime_power_scan(finfield._DESK_LIMIT + 1, include_oracle=False)
        assert len(finfield._sieve) == size
