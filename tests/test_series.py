import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2puiseux import (EvenK, F2Series, NotAUnit, OddSupport, add, inv,
                       kth_root_odd, mul, pow_int, series, sqrt)
from f2puiseux import bitops
from f2puiseux.puiseux import DEFAULT_DEN_CAP
from f2puiseux.bitops import (_COMB_CUTOFF, _SPARSE_SCAN, _WIDE_BITS,
                              bit_indices, clmul, compress, spread)

from oracles import (bits_to_coeffs, coeffs_to_bits, convolve_mod2,
                     coordinate_power, coordinates_match, reference_compress,
                     reference_spread, schoolbook_inverse, series_product,
                     unit_coordinates)


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

    def test_long_prec_named_by_its_digit_count(self):
        with pytest.raises(ValueError,
                           match="^prec must be >= 1, got -<5001 digits>$"):
            S(1, -10 ** 5000)
        with pytest.raises(ValueError, match="^prec must be >= 1, got 0$"):
            S(1, 0)

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


STRIDES = [1, 2, 3, 7, 8, 9, 16, 64]


def clmul_oracle(a, b):
    return coeffs_to_bits(convolve_mod2(bits_to_coeffs(a, a.bit_length()),
                                        bits_to_coeffs(b, b.bit_length())))


def walked_window(a, b):
    """The comb window clmul(a, b) walks with, by the kernel's own rule:
    it walks the operand with fewer set bits, b on a tie."""
    return bitops._comb_window(min(b, a, key=int.bit_count))


def comb_switch(length):
    """The fewest set bits from which clmul walks a length-bit operand
    with a comb rather than shifting and XORing per set bit, or
    length + 1 if it never does."""
    return next((n for n in range(1, length + 1) if bitops._comb_window(
        (1 << (n - 1)) - 1 | 1 << (length - 1))), length + 1)


@st.composite
def kernel_operand(draw):
    """Bit lengths around 512 and around the window switch, and set-bit
    counts around both comb cutoffs."""
    length = draw(st.one_of(st.integers(1, 1100), st.integers(500, 530),
                            st.integers(_WIDE_BITS - 8, _WIDE_BITS + 8)))
    switch = comb_switch(length)
    weight = draw(st.one_of(
        st.integers(1, length),
        st.integers(max(1, switch - 5), switch + 3),
        st.integers(_COMB_CUTOFF - 4, _COMB_CUTOFF + 4)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ones = rng.sample(range(length), min(weight, length))
    return sum(1 << j for j in ones) | (1 << (length - 1))


class TestCarrylessKernel:
    """Every path, shift-and-XOR and the comb with 4-bit and with 8-bit
    windows, must agree with plain convolution."""

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
        # all-ones inputs fill every window and every table entry, of
        # the 16-entry table below _WIDE_BITS bits and the 256-entry one
        # from there; n = 6 shifts and XORs, n = 7 takes the 4-bit comb
        rng = random.Random(7)
        for n in (6, 7, 28, 29, _COMB_CUTOFF,
                  _COMB_CUTOFF + 1, 513, 520, _WIDE_BITS, 1031):
            a = (1 << n) - 1
            want = coeffs_to_bits(convolve_mod2([1] * n, [1] * n))
            assert clmul(a, a) == want
            b = rng.getrandbits(3 * n) | 1
            assert clmul(a, b) == clmul(b, a) == clmul_oracle(a, b)

    def test_zero(self):
        assert clmul(0, 12345) == 0
        assert clmul(12345, 0) == 0
        for m in STRIDES:
            assert clmul(0, 12345, stride=m) == 0
            assert clmul(12345, 0, stride=m) == 0
            assert clmul(0, 0, stride=m) == 0

    @pytest.mark.parametrize("m", STRIDES)
    def test_stride_matches_convolution(self, m):
        # clmul(a, b, stride=m) is a * spread(b, m).  The walked operand
        # holds set bits on both sides of the comb switch and around
        # _COMB_CUTOFF: b at the stride m when a is denser, else a
        # against spread(b, m)
        rng = random.Random(m)
        dense = sum(1 << j for j in rng.sample(range(400), 250))
        switch = comb_switch(300)
        for weight in (switch - 1, switch, _COMB_CUTOFF, _COMB_CUTOFF + 1):
            walked = sum(1 << j for j in rng.sample(range(300), weight))
            assert (clmul(dense, walked, stride=m)
                    == clmul_oracle(reference_spread(walked, m), dense))
            assert (clmul(walked, dense, stride=m)
                    == clmul_oracle(reference_spread(dense, m), walked))

    @pytest.mark.parametrize("m", STRIDES)
    def test_window_switch_matches_convolution(self, m):
        # walked operands of _WIDE_BITS - 1, _WIDE_BITS and _WIDE_BITS + 1
        # bits, at each comb cutoff and one either side, take every path,
        # both as b at the stride m and, in the swap, as a sparser a
        # walked against spread(b, m)
        rng = random.Random(m)
        dense = sum(1 << j for j in rng.sample(range(300), 200))
        windows = set()
        for length in (_WIDE_BITS - 1, _WIDE_BITS, _WIDE_BITS + 1):
            for weight in (c + d for c in (comb_switch(length) - 1,
                                           _COMB_CUTOFF)
                           for d in (-1, 0, 1)):
                walked = sum(1 << j for j in rng.sample(
                    range(1, length - 1), weight - 2)) | 1 | 1 << (length - 1)
                windows.add(walked_window(dense, walked))
                assert (clmul(dense, walked, stride=m)
                        == clmul_oracle(dense, reference_spread(walked, m)))
                assert (clmul(walked, dense, stride=m)
                        == clmul_oracle(walked, reference_spread(dense, m)))
        assert windows == {0, 4, 8}

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

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_four_bit_table_matches_convolution(self, m):
        # every digit 0-15 at several places of a walked operand that
        # takes the 4-bit comb, so each of the 16 table entries is read,
        # with a denser operand a, and b at the stride m
        rng = random.Random(m)
        a = rng.getrandbits(300) | 1 << 299 | 1
        for b in (int("fedcba9876543210" * 3, 16),
                  int("0123456789abcdef" * 2 + "f", 16),
                  int("".join(rng.choice("0123456789abcdef")
                              for _ in range(40)), 16) | 1):
            assert bitops._comb_window(b) == 4
            assert clmul(a, b, stride=m) == clmul_oracle(
                a, reference_spread(b, m))

    @pytest.mark.parametrize("length", [64, 128, 256, 512, 768, 1023])
    def test_four_bit_cutoff_by_length_matches_convolution(self, length):
        # the cutoff rises with the walked length; one set bit below it
        # shifts and XORs, at it and one above the 4-bit comb walks
        rng = random.Random(length)
        switch = comb_switch(length)
        a = rng.getrandbits(2 * length) | 1 << (2 * length - 1) | 1
        for weight, window in ((switch - 1, 0), (switch, 4),
                               (switch + 1, 4)):
            walked = sum(1 << j for j in rng.sample(
                range(1, length - 1), weight - 2)) | 1 | 1 << (length - 1)
            assert bitops._comb_window(walked) == window
            for m in (1, 3):
                assert clmul(a, walked, stride=m) == clmul_oracle(
                    a, reference_spread(walked, m)), (weight, m)

    @pytest.mark.parametrize("m", [1, 3])
    def test_zero_digits_and_small_top_digit(self, m):
        # Horner's walk starts at the top digit, whatever its value, and
        # shifts past runs of zero digits
        rng = random.Random(m)
        a = rng.getrandbits(400) | 1 << 399 | 1
        for top in range(1, 16):
            for body in ("0f" * 12, "f00f" * 8 + "0" * 9 + "ff" * 6,
                         "ff" * 10 + "0" * 20 + "1"):
                b = int(format(top, "x") + body, 16)
                assert bitops._comb_window(b) == 4, (top, body)
                assert clmul(a, b, stride=m) == clmul_oracle(
                    a, reference_spread(b, m)), (top, body)

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


class TestBitIndices:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 1000, 4096])
    def test_both_sides_of_the_density_switch(self, n):
        # sparse bodies are walked with str.find, dense ones select from
        # a range; set-bit counts from a lone top bit to all bits set
        rng = random.Random(n)
        k = n // _SPARSE_SCAN
        for w in {0, 1, k - 2, k - 1, k, k + 1, n // 2, n - 1}:
            low = rng.sample(range(n - 1), min(max(w, 0), n - 1))
            x = sum(1 << j for j in low) | 1 << (n - 1)
            assert list(bit_indices(x)) == [j for j in range(n) if x >> j & 1]
        assert list(bit_indices(0)) == []


# bit lengths on either side of each power of two up to 2**12
STRADDLE_WIDTHS = sorted({(1 << k) + d for k in range(1, 13)
                          for d in (-1, 0, 1)})


@st.composite
def straddling_operand(draw):
    width = draw(st.sampled_from(STRADDLE_WIDTHS))
    return draw(st.integers(0, (1 << (width - 1)) - 1)) | 1 << (width - 1)


class TestSpreadCompress:
    """spread and compress carry all re-gridding; both must match the
    per-bit references."""

    def test_zero_and_one(self):
        for m in range(1, 301):
            for x in (0, 1):
                assert spread(x, m) == reference_spread(x, m) == x
                assert compress(x, m) == reference_compress(x, m) == x

    @given(straddling_operand(), st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, x, m):
        wide = spread(x, m)
        assert wide == reference_spread(x, m)
        assert compress(wide, m) == x
        # x itself is mostly off the stride: those bits are dropped
        assert compress(x, m) == reference_compress(x, m)


# the per-bit references are quadratic in the width, so wide operands are
# checked against them a slice at a time
SLICE = 1024


def low(x, n):
    return x & ((1 << n) - 1)


def operand(rng, width):
    return rng.getrandbits(width) | 1 << (width - 1) | 1


class TestSpreadCompressWide:
    """The cascade beyond the widths and strides hypothesis draws."""

    @pytest.mark.parametrize("m", [2, 3, 12])
    @pytest.mark.parametrize("k", range(13, 18))
    def test_widths_around_powers_of_two(self, k, m):
        rng = random.Random(k * 1000 + m)
        for width in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            x = operand(rng, width)
            wide = spread(x, m)
            assert wide.bit_length() == m * (width - 1) + 1
            for a in range(0, width, SLICE):
                assert (low(wide >> m * a, m * SLICE)
                        == reference_spread(low(x >> a, SLICE), m))
            assert compress(wide, m) == x
            # x itself is mostly off the stride
            narrow = compress(x, m)
            assert narrow.bit_length() <= -(-width // m)
            for b in range(0, -(-width // m), SLICE):
                assert (low(narrow >> b, SLICE)
                        == reference_compress(low(x >> m * b, m * SLICE), m))

    def test_narrow_bodies_at_the_den_cap(self):
        m = DEFAULT_DEN_CAP
        rng = random.Random(41)
        widths = sorted({*range(1, 10), 100, 300}
                        | {(1 << k) + d for k in range(4, 9)
                           for d in (-1, 0, 1)})
        for width in widths:
            x = operand(rng, width)
            wide = spread(x, m)
            assert wide == reference_spread(x, m)
            assert compress(wide, m) == x
            # every bit off the stride is dropped
            stride = reference_spread((1 << width) - 1, m)
            noise = rng.getrandbits(wide.bit_length()) & ~stride
            assert compress(wide | noise, m) == x


class TestMaskCache:
    def held(self):
        return sum(mask.bit_length() for masks in bitops._MASKS.values()
                   for mask in masks)

    def test_bounded_and_exact_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(bitops, "_MASKS", {})
        monkeypatch.setattr(bitops, "_held_bits", 0)
        rng = random.Random(43)
        sizes = []

        def within_bound():
            assert self.held() <= bitops._MASK_BITS
            sizes.append(len(bitops._MASKS))
        # each key (m, 10) holds 11 masks of m * 1024 bits, so a few
        # fill the cache and it is cleared several times over
        for m in rng.sample(range(60, 300), 24) * 2:
            x = operand(rng, rng.randrange(513, 1025))
            wide = spread(x, m)
            within_bound()
            assert wide == reference_spread(x, m)
            assert compress(wide, m) == x
            within_bound()
            assert compress(x, m) == reference_compress(x, m)
            within_bound()
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 4

    def test_key_past_the_bound_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(bitops, "_MASKS", {})
        monkeypatch.setattr(bitops, "_held_bits", 0)
        x = operand(random.Random(47), 2048)
        wide = spread(x, 4096)
        assert compress(wide, 4096) == x
        assert bitops.support_gcd(wide, 4096) == 4096
        assert (4096, 11) not in bitops._MASKS
        assert self.held() == 0
        assert spread(x, 3) == reference_spread(x, 3)
        assert (3, 11) in bitops._MASKS


class TestSpreadCompressMemory:
    # tracemalloc peaks of the string-based spread and compress these
    # replaced (one run each, Python 3.11): a 2048-bit body at m = 4096
    # took 9.1 and 16.0 MiB, a 256-bit body at m = 2**16 took 18.1 and
    # 31.9 MiB; all masks of a key built at once took 13.9 and 21.3 MiB
    # for spread
    @pytest.mark.parametrize("width, m, spread_mib, compress_mib",
                             [(2048, 4096, 9.1, 16.0),
                              (256, 1 << 16, 18.1, 31.9)])
    def test_peaks_at_the_den_cap_corners(self, width, m, spread_mib,
                                          compress_mib):
        x = operand(random.Random(width), width)
        wide = spread(x, m)
        for f, arg, limit in ((spread, x, spread_mib),
                              (compress, wide, compress_mib)):
            tracemalloc.start()
            try:
                f(arg, m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit * 2 ** 20


class TestSupportGcd:
    def test_matches_literal_gcd_fold(self):
        from math import gcd
        from f2puiseux.bitops import spread, support_gcd
        rng = random.Random(17)
        cases = []
        for _ in range(800):
            prec = rng.randrange(1, 120)
            x = rng.getrandbits(prec)
            if rng.random() < 0.5:
                x = spread(x, rng.choice((2, 3, 4, 6)))
            seed = rng.randrange(1, 400)
            cases.append((x, seed))
        # seeds of high multiplicity up to the den cap and a large prime,
        # on operands of thousands of bits spread by a stride sharing
        # factors with the seed, clean and with one bit off that stride
        # on its largest proper divisor
        for seed in (1 << 16, 3 ** 10, 2 ** 4 * 3 ** 2 * 5 * 7, 65521):
            for m in (2, 3, 12, 48, 210, 1024, 2187, 5040, 65521):
                x = spread(rng.getrandbits(6000 // m + 2) | 1, m)
                sub = max(d for d in range(1, m) if m % d == 0)
                cases.append((x, seed))
                cases.append((x | 1 << (sub * rng.randrange(1, 99)), seed))
            cases.append((rng.getrandbits(5000), seed))
        for x, seed in cases:
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

    def test_one_stride_test_when_bit_one_is_set(self, monkeypatch):
        # index 1 is off every stride > 1, so the first failed test ends
        # the descent at 1 whatever the multiplicity of the seed
        strides = []
        real = bitops._stride_mask

        def counted(m, n):
            strides.append(m)
            return real(m, n)
        monkeypatch.setattr(bitops, "_stride_mask", counted)
        x = random.Random(19).getrandbits(4000) | 0b11
        assert bitops.support_gcd(x, 1 << 16) == 1
        assert strides == [1 << 16]


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

    def test_odd_top_bit_rejected(self):
        # the only odd exponent is the last one below the precision
        for prec in (2, 8, 64, 4096):
            even = spread(random.Random(prec).getrandbits(prec // 2), 2)
            with pytest.raises(OddSupport):
                sqrt(S(even | 1 << (prec - 1), prec))

    def test_odd_bit_one_of_long_operand_rejected(self):
        even = spread(random.Random(37).getrandbits(5000), 2)
        with pytest.raises(OddSupport):
            sqrt(S(even | 0b10, 10 ** 4))

    @pytest.mark.parametrize("prec", [1, 2, 3, 8, 9, 10 ** 4 + 1])
    def test_zero(self, prec):
        out = sqrt(S(0, prec))
        assert out.coeffs == 0 and out.prec == (prec + 1) // 2

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
        with pytest.raises(EvenK, match="^k must be a positive odd integer, "
                                        "got <5001 digits>$"):
            kth_root_odd(S(1, 4), 10 ** 5000)

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

    def test_agrees_with_coordinate_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            prec = rng.randrange(1, 120)
            a = S(rng.getrandbits(prec) | 1, prec)
            k = rng.choice(range(3, 50, 2))
            root = kth_root_odd(a, k)
            # bit for bit
            assert root.coeffs == coordinate_power(a.coeffs, 1, k, prec)


# the modulus 2**s of p/k is the least power of 2 at or above the
# precision, so it changes between 2**j and 2**j + 1
LADDER_PRECS = sorted({(1 << j) + d for j in range(11) for d in (-1, 0, 1)}
                      - {0})


class TestPowerLadderAgainstOracles:
    """inv and kth_root_odd are the integer powers a**(-1 mod 2**s) and
    a**(k**-1 mod 2**s) of the _power ladder; both must match the
    oracles (coefficient at a time for the inverse, from 2-adic
    coordinates for the roots), and their results at thousands of bits
    must multiply or power back."""

    @pytest.fixture
    def comb_calls(self, monkeypatch):
        calls = []

        def traced(a, b, *, stride=1):
            if walked_window(a, b):
                calls.append(max(a.bit_length(),
                                 spread(b, stride).bit_length()))
            return clmul(a, b, stride=stride)
        monkeypatch.setattr(series, "clmul", traced)
        return calls

    @pytest.mark.parametrize("k", [1, 3, 5, 9, 31, 49])
    def test_ladder_boundaries(self, k):
        rng = random.Random(k)
        for prec in LADDER_PRECS:
            a = S(rng.getrandbits(prec) | 1, prec)
            if k == 1:
                assert inv(a).coeffs == schoolbook_inverse(a).coeffs, prec
            else:
                got = kth_root_odd(a, k).coeffs
                assert got == coordinate_power(a.coeffs, 1, k, prec), prec

    @pytest.mark.parametrize("k", [1, 3, 5, 9, 31, 49])
    def test_dense_operands_reach_the_comb(self, k, comb_calls):
        # with 2**v dividing k-1, the last product multiplies a by a
        # 2**v-fold spread, so k = 9 and 49 need thousands of bits; the
        # unique root is certified by raising it back to the k-th power
        a = S(random.Random(k).getrandbits(4097) | 1, 4097)
        got = inv(a) if k == 1 else kth_root_odd(a, k)
        assert max(comb_calls, default=0) > 2048
        if k == 1:
            assert mul(a, got) == F2Series.one(a.prec)
        else:
            assert got.coeffs & 1 and pow_int(got, k) == a


class TestCoordinates:
    """In the 2-adic coordinates of oracles.unit_coordinates, products
    add, the inverse negates, powers scale and k-th roots divide by k."""

    @pytest.mark.parametrize("prec", [1, 2, 3, 63, 64, 65, 256])
    def test_group_law_in_coordinates(self, prec):
        def coords(a, scale=1):
            return {n: scale * c for n, c in
                    unit_coordinates(a.coeffs, a.prec).items()}
        rng = random.Random(prec)
        for _ in range(20):
            a = S(rng.getrandbits(prec) | 1, prec)
            b = S(rng.getrandbits(prec) | 1, prec)
            ca, cb = coords(a), coords(b)
            assert coordinates_match(coords(mul(a, b)), {
                n: ca.get(n, 0) + cb.get(n, 0) for n in ca.keys() | cb}, prec)
            assert coordinates_match(coords(inv(a)), coords(a, -1), prec)
            e = rng.randrange(300)
            assert coordinates_match(coords(pow_int(a, e)), coords(a, e), prec)
            k = rng.randrange(1, 50, 2)
            assert coordinates_match(coords(kth_root_odd(a, k), k), ca, prec)
            # one flipped coefficient moves the coordinates
            if prec > 1:
                assert not coordinates_match(coords(S(a.coeffs ^ 2, prec)),
                                             ca, prec)


SPREAD_STRIDES = list(range(1, 13)) + [16, 32]


def spread_product_oracle(a, z, m, prec):
    """a * spread(z, m) modulo t**prec by schoolbook convolution."""
    return coeffs_to_bits(convolve_mod2(
        bits_to_coeffs(a, prec), bits_to_coeffs(reference_spread(z, m), prec),
        prec))


def with_weight(rng, n, weight):
    """An n-bit operand with bit 0 and weight set bits in all."""
    return sum(1 << j for j in rng.sample(range(1, n), weight - 1)) | 1


class TestMulSpread:
    """series._mul_spread is one stride product: the kernel walks z at
    the stride m, or walks a against spread(z, m) when a is sparser."""

    @pytest.mark.parametrize("m", SPREAD_STRIDES)
    def test_every_class_split_matches_convolution(self, m):
        # every stride at small precisions, down to prec < m
        rng = random.Random(m)
        for prec in sorted({1, 2, m - 1, m, m + 1, 2 * m + 1, 7 * m + 3,
                            97, 200} - {0}):
            a = rng.getrandbits(prec) | 1
            z = rng.getrandbits(prec)
            assert (series._mul_spread(a, z, m, prec)
                    == spread_product_oracle(a, z, m, prec)), prec

    @pytest.mark.parametrize("m", SPREAD_STRIDES)
    def test_dense_operands_across_the_cutoff(self, m):
        # a dense a at about 2048 * m bits walks z at the stride m, on
        # both sides of the comb cutoff and densely.  The kernel is
        # checked against convolution above, so one stride-1 product of
        # the spread operand is the reference here.
        rng = random.Random(m)
        for prec in (2048 * m + d for d in (-1, 0, 1)):
            n = -(-prec // m)
            a = rng.getrandbits(prec) | 1
            for z in (with_weight(rng, n, _COMB_CUTOFF),
                      with_weight(rng, n, _COMB_CUTOFF + 1),
                      rng.getrandbits(n) | 1):
                want = clmul(a, reference_spread(z, m)) & ((1 << prec) - 1)
                assert series._mul_spread(a, z, m, prec) == want, prec

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_sparse_operand_above_the_cutoff_matches_convolution(self, m):
        # a sparser a is walked against the spread z, on both sides of
        # the comb cutoff; a sparse a keeps the convolution cheap
        rng = random.Random(m)
        prec = 2048 * m + m - 1
        z = rng.getrandbits(-(-prec // m))
        for weight in (_COMB_CUTOFF, _COMB_CUTOFF + 1):
            a = with_weight(rng, prec, weight)
            assert (series._mul_spread(a, z, m, prec)
                    == spread_product_oracle(a, z, m, prec)), weight

    @pytest.mark.parametrize("c,v", [(1, 1), (3, 1), (3, 2), (5, 0), (5, 3),
                                     (9, 0), (7, 1), (17, 0)])
    def test_pow_across_the_cutoff(self, c, v):
        # the dense factors a**(2**j) of the odd part take the stride
        # comb, and the power of 2 spreads the odd power
        rng = random.Random(c << 8 | v)
        for prec in (4095, 4097, 8193, 16385):
            a = S(rng.getrandbits(prec) | 1, prec)
            want = F2Series.one(prec)
            for _ in range(c << v):
                want = mul(want, a)
            assert pow_int(a, c << v).coeffs == want.coeffs, prec


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

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 4, 7, 8, 48, 255, 256])
    def test_no_squaring_past_the_top_bit(self, e, monkeypatch):
        # with e = c * 2**v, c odd, a**c = a * spread(a**(c >> j), 2**j)
        # for the next set bit j of c, recursing on c >> j modulo
        # t**ceil(prec / 2**j); a**e then spreads once by 2**v.  So the
        # strides are the gaps between the set bits of c, none of them 1
        # (no square), innermost first, down to where the precision is 1
        calls = []

        def counted_spread(x, m):
            calls.append(("spread", m))
            return spread(x, m)

        def counted_mul_spread(a, z, m, prec):
            calls.append(("mul", m))
            return clmul(a, spread(z, m)) & ((1 << prec) - 1)
        monkeypatch.setattr(series, "spread", counted_spread)
        monkeypatch.setattr(series, "_mul_spread", counted_mul_spread)
        got = series._power(0b1011, e, 1, 64)
        c = e // (e & -e) if e else 0
        bits = [j for j in range(c.bit_length()) if c >> j & 1]
        strides, prec = [], -(-64 // (e & -e or 1))
        for lo, hi in zip(bits, bits[1:]):
            if prec == 1:
                break
            strides.append(("mul", 1 << (hi - lo)))
            prec = -(-prec >> (hi - lo))
        assert calls == strides[::-1] + [("spread", e & -e)] * (e & -e > 1)
        want = 1
        for _ in range(e):
            want = clmul(want, 0b1011) & ((1 << 64) - 1)
        assert got == want

    @pytest.mark.parametrize("e", [1, 2, 3, 7, 8, 100])
    def test_no_product_with_one(self, e, monkeypatch):
        b, prec = 0b1011, 1024
        expected = F2Series.one(prec)
        for _ in range(e):
            expected = mul(expected, S(b, prec))
        products = []

        def counted(x, y, **stride):
            products.append((x, y))
            return clmul(x, y, **stride)
        monkeypatch.setattr(series, "clmul", counted)
        assert series._power(b, e, 1, prec) == expected.coeffs
        assert len(products) == e.bit_count() - 1
        assert all(1 not in pair for pair in products)


class TestHugeExponents:
    """Units modulo t**prec have exponent 2**s, the least power of 2 at
    or above prec, so only p/k modulo 2**s matters, and no exponent or
    root index makes the power recurse more than about log2(prec) deep."""

    def test_nonunit_power_is_zero(self):
        assert pow_int(S(0b110, 3), 3 ** 2000) == S(0, 3)

    @pytest.mark.parametrize("prec", [1, 2, 3, 64, 65, 300, 4097])
    def test_root_of_huge_index_matches_coordinates(self, prec):
        bits = random.Random(prec).getrandbits(prec) | 1
        got = kth_root_odd(S(bits, prec), 3 ** 2000)
        assert got.coeffs == coordinate_power(bits, 1, 3 ** 2000, prec)

    @pytest.mark.parametrize("prec", [1, 2, 3, 4, 5, 63, 64, 65, 1025])
    def test_exponents_agreeing_modulo_2s_agree(self, prec):
        mod = 1 << (prec - 1).bit_length()
        rng = random.Random(prec)
        a = S(rng.getrandbits(prec) | 1, prec)
        assert pow_int(a, mod - 1) == inv(a)
        for k in (3, 49, 3 ** 2000):
            assert pow_int(a, pow(k, -1, mod)) == kth_root_odd(a, k)
        for _ in range(10):
            e = rng.randrange(4 * mod)
            want = pow_int(a, e)
            for c in (1, 5, 3 ** 2000):
                assert pow_int(a, e + c * mod) == want, (e, c)
