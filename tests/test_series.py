import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2puiseux import (EvenK, F2Series, NotAUnit, OddSupport, add, inv,
                       kth_root_odd, mul, pow_int, sqrt)
from f2puiseux.bitops import _COMB_CUTOFF, clmul, spread

from oracles import (bits_to_coeffs, coeffs_to_bits, convolve_mod2,
                     linear_lift_root, series_product)


def S(bits, prec):
    return F2Series(bits, prec)


@st.composite
def series_strategy(draw):
    prec = draw(st.integers(min_value=1, max_value=256))
    bits = draw(st.integers(min_value=0, max_value=(1 << prec) - 1))
    return S(bits, prec)


series_st = series_strategy()
unit_st = series_st.map(lambda a: S(a.coeffs | 1, a.prec))


class TestConstruction:
    def test_prec_zero_rejected(self):
        with pytest.raises(ValueError):
            S(1, 0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            S(-1, 4)

    def test_construction_truncates(self):
        assert S(0b10111, 3).coeffs == 0b111

    def test_equality_truncates_to_smaller_prec(self):
        assert S(0b1, 8) == S(0b1001, 3)  # spec: (1, prec 8) vs below t^3
        assert S(0b11, 4) != S(0b01, 4)


class TestAdd:
    def test_self_cancels(self):
        assert add(S(0b11, 4), S(0b11, 4)) == S(0, 4)

    def test_xor_of_masks(self):
        assert add(S(0b11, 4), S(0b110, 4)) == S(0b101, 4)

    def test_precision_is_minimum(self):
        out = add(S(1, 8), S(0b10, 3))
        assert out.prec == 3 and out.coeffs == 0b11


class TestMul:
    def test_frobenius_square(self):
        assert mul(S(0b11, 4), S(0b11, 4)) == S(0b101, 4)

    def test_schoolbook_example(self):
        # (1+t)(1+t+t^2) expands to 1+t^3
        assert mul(S(0b11, 4), S(0b111, 4)) == S(0b1001, 4)

    def test_one_is_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            a = S(rng.getrandbits(100), 100)
            assert mul(F2Series.one(100), a) == a

    @given(series_st, series_st)
    @settings(max_examples=60)
    def test_matches_convolution_oracle(self, a, b):
        assert mul(a, b) == series_product(a, b)

    @given(series_st, series_st, series_st)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(series_st, series_st)
    @settings(max_examples=40)
    def test_frobenius_is_additive(self, a, b):
        assert pow_int(add(a, b), 2) == add(pow_int(a, 2), pow_int(b, 2))


def clmul_oracle(a, b):
    # schoolbook cost is popcount(a) * len(b): pass the sparser first
    return coeffs_to_bits(convolve_mod2(bits_to_coeffs(a, a.bit_length()),
                                        bits_to_coeffs(b, b.bit_length())))


@st.composite
def kernel_operand(draw):
    """Bit lengths around 512 and set-bit counts around the comb cutoff."""
    length = draw(st.one_of(st.integers(1, 1100), st.integers(500, 530)))
    weight = draw(st.one_of(st.integers(1, length),
                            st.integers(_COMB_CUTOFF - 4, _COMB_CUTOFF + 4)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ones = rng.sample(range(length), min(weight, length))
    return sum(1 << j for j in ones) | (1 << (length - 1))


class TestCarrylessKernel:
    """Both paths, shift-and-XOR and the byte-window comb, must agree
    with plain convolution."""

    @pytest.mark.parametrize("la,lb", [
        (511, 511), (512, 512), (513, 513), (600, 2000), (2000, 513),
        (1, 4000), (700, 700),
    ])
    def test_sizes_straddling_cutoff(self, la, lb):
        rng = random.Random(la * 100003 + lb)
        a = rng.getrandbits(la) | (1 << (la - 1))
        b = rng.getrandbits(lb) | (1 << (lb - 1))
        want = coeffs_to_bits(convolve_mod2(bits_to_coeffs(a, la),
                                            bits_to_coeffs(b, lb)))
        assert clmul(a, b) == want

    def test_dense_operands_max_column_sums(self):
        # all-ones inputs fill every byte window and every table entry
        rng = random.Random(7)
        for n in (_COMB_CUTOFF, _COMB_CUTOFF + 1, 513, 520, 1024, 1031):
            a = (1 << n) - 1
            want = coeffs_to_bits(convolve_mod2([1] * n, [1] * n))
            assert clmul(a, a) == want
            b = rng.getrandbits(3 * n) | 1
            assert clmul(a, b) == clmul(b, a) == clmul_oracle(a, b)

    def test_zero(self):
        assert clmul(0, 12345) == 0
        assert clmul(12345, 0) == 0

    @given(kernel_operand(), kernel_operand())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_across_both_cutoffs(self, a, b):
        want = clmul_oracle(*sorted((a, b), key=int.bit_count))
        assert clmul(a, b) == want
        assert clmul(b, a) == want

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12, 16, 31])
    def test_strided_long_times_dense_short(self, m):
        # spread() output, as re-aligning grids produces: long, sparse
        rng = random.Random(m)
        for dense_len, short_len in ((120, 700), (300, 64), (400, 257)):
            a = spread(rng.getrandbits(dense_len) | 1, m)
            b = rng.getrandbits(short_len) | (1 << (short_len - 1))
            want = clmul_oracle(a, b)
            assert clmul(a, b) == want
            assert clmul(b, a) == want

    def test_sparse_long_times_dense_short(self):
        rng = random.Random(29)
        for weight in (1, _COMB_CUTOFF, _COMB_CUTOFF + 1, 300):
            a = sum(1 << j for j in rng.sample(range(20000), weight))
            b = rng.getrandbits(600) | 1
            assert clmul(a, b) == clmul_oracle(a, b)

    def test_many_zero_bytes(self):
        rng = random.Random(31)
        for share in (0.5, 0.9, 0.99):
            def operand(nbytes):
                raw = bytes(0 if rng.random() < share else rng.randrange(256)
                            for _ in range(nbytes))
                return int.from_bytes(raw, "little") | 1
            a, b = operand(600), operand(400)
            want = clmul_oracle(*sorted((a, b), key=int.bit_count))
            assert clmul(a, b) == want
            assert clmul(b, a) == want
        # one set bit per byte: every window is nonzero but holds one bit
        a = sum(1 << (8 * i + rng.randrange(8)) for i in range(200))
        b = rng.getrandbits(900)
        assert clmul(a, b) == clmul_oracle(a, b)


class TestSupportGcd:
    def test_matches_literal_gcd_fold(self):
        from math import gcd
        from f2puiseux.bitops import spread, support_gcd
        rng = random.Random(17)
        for _ in range(800):
            prec = rng.randrange(1, 120)
            x = rng.getrandbits(prec)
            if rng.random() < 0.5:
                x = spread(x, rng.choice((2, 3, 4, 6)))
            seed = rng.randrange(1, 400)
            want, y = seed, x & ~1
            while y:
                low = y & -y
                want = gcd(want, low.bit_length() - 1)
                y ^= low
            assert support_gcd(x, seed) == want

    def test_trivial_support(self):
        from f2puiseux.bitops import support_gcd
        assert support_gcd(1, 12) == 12   # bit 0 sits on every stride
        assert support_gcd(0, 9) == 9
        assert support_gcd(0b1000000, 12) == 6  # index 6: gcd(12, 6)


class TestInv:
    def test_identity(self):
        assert inv(F2Series.one(6)) == F2Series.one(6)

    def test_geometric_series(self):
        assert inv(S(0b11, 5)) == S(0b11111, 5)

    def test_fixed_example(self):
        # checked by multiplying back: (1+t+t^2)(1+t+t^3) = 1 mod t^4
        assert inv(S(0b111, 4)) == S(0b1011, 4)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            inv(S(0b10, 4))

    @given(unit_st)
    @settings(max_examples=60)
    def test_round_trip(self, a):
        assert mul(a, inv(a)) == F2Series.one(a.prec)


class TestSqrt:
    def test_frobenius_inverse(self):
        out = sqrt(S(0b101, 5))
        assert out.coeffs == 0b11 and out.prec == 3

    def test_square_back(self):
        out = sqrt(S(0b10101, 6))
        assert out.coeffs == 0b111 and out.prec == 3
        # the root, squared with full knowledge, recovers a to 2*out.prec
        resquared = mul(S(out.coeffs, 6), S(out.coeffs, 6))
        assert resquared == S(0b10101, 6)

    def test_odd_support_rejected(self):
        with pytest.raises(OddSupport):
            sqrt(S(0b11, 4))

    @given(series_st)
    @settings(max_examples=40)
    def test_round_trip_on_squares(self, b):
        assert sqrt(pow_int(b, 2)) == b


class TestKthRoot:
    def test_k_one_is_identity(self):
        a = S(0b1101, 4)
        assert kth_root_odd(a, 1) == a

    def test_cube_root_example(self):
        assert kth_root_odd(S(0b11, 3), 3) == S(0b111, 3)

    def test_fifth_root_example(self):
        assert kth_root_odd(S(0b11, 3), 5) == S(0b11, 3)
        assert pow_int(S(0b11, 6), 5) == S(0b110011, 6)

    def test_even_k_rejected(self):
        with pytest.raises(EvenK):
            kth_root_odd(S(1, 4), 2)

    def test_nonunit_rejected(self):
        with pytest.raises(NotAUnit):
            kth_root_odd(S(0b10, 4), 3)

    def test_round_trips_random(self):
        rng = random.Random(11)
        for _ in range(40):
            prec = rng.randrange(1, 200)
            b = S(rng.getrandbits(prec) | 1, prec)
            k = rng.choice(range(1, 50, 2))
            assert kth_root_odd(pow_int(b, k), k) == b
            a = S(rng.getrandbits(prec) | 1, prec)
            assert pow_int(kth_root_odd(a, k), k) == a

    def test_agrees_with_linear_lift_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            prec = rng.randrange(1, 120)
            a = S(rng.getrandbits(prec) | 1, prec)
            k = rng.choice(range(3, 50, 2))
            newton = kth_root_odd(a, k)
            linear = linear_lift_root(a, k)
            assert newton.coeffs == linear.coeffs  # bit for bit


class TestPow:
    def test_zero_exponent(self):
        assert pow_int(S(0b1101, 4), 0) == F2Series.one(4)

    def test_square(self):
        assert pow_int(S(0b11, 4), 2) == S(0b101, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pow_int(S(1, 4), -1)

    @given(unit_st, st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=40)
    def test_exponent_addition(self, a, e1, e2):
        assert mul(pow_int(a, e1), pow_int(a, e2)) == pow_int(a, e1 + e2)
