import random
import tracemalloc
from fractions import Fraction as Q
from math import ceil, gcd, lcm

import pytest

from f2puiseux import (DEFAULT_DEN_CAP, DenominatorOverflow, F2Series,
                       Indistinguishable, L0Element, NotAUnit, PuiseuxUnit,
                       compose, decompose, decompose_raw, element_inv,
                       element_mul, element_pow, element_root,
                       element_scalar_mul, elements_agree, format_unit,
                       scalar_mul_unit, series, unit_inv, unit_mul, unit_pow,
                       unit_root, unit_sqrt, units_agree)
from f2puiseux.bitops import spread, support_gcd
from f2puiseux.puiseux import _act

from oracles import (coordinate_power, coordinates_match, lifted_root,
                     reference_scalar_mul_unit, reference_spread,
                     reference_units_agree, term_product, unit_coordinates,
                     unit_terms)
from test_series import comb_switch


# 60 exponents i + 1/d, d = 10**80 + i: their grid denominator, the lcm
# of the d, has 4735 digits, more than str() can print
LONG_GRID = [Q(i * (10 ** 80 + i) + 1, 10 ** 80 + i) for i in range(1, 61)]
LONG_GRID_TEXT = " + ".join(["1", *(f"x^({e})" for e in LONG_GRID),
                             "O(x^(62))"])
LONG_GRID_ERROR = "grid denominator <4735 digits> exceeds the cap 65536"


def U(den, bits, prec):
    return PuiseuxUnit(den, F2Series(bits, prec))


def random_unit(rng, den, prec):
    return U(den, rng.getrandbits(prec) | 1, prec)


class TestNormalization:
    def test_integer_support_reduces(self):
        u = U(2, 0b101, 4)  # 1 + s^2 on the half grid, aprec 2
        assert u.den == 1 and u.body.coeffs == 0b11 and u.body.prec == 2

    def test_already_minimal(self):
        u = U(2, 0b11, 4)
        assert u.den == 2 and u.body.coeffs == 0b11

    def test_gcd_reduction(self):
        u = U(6, 0b10101, 6)  # support {0,2,4} and prec 6 share the factor 2
        assert u.den == 3 and u.body.coeffs == 0b111 and u.body.prec == 3

    def test_prec_blocks_inexact_reduction(self):
        # support is even but the precision index is odd: reducing would
        # claim knowledge of a coefficient slot that was never computed
        u = U(2, 0b101, 5)
        assert u.den == 2 and u.body.prec == 5

    def test_normalize_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            u = random_unit(rng, rng.choice((1, 2, 3, 4, 6, 12)),
                            rng.randrange(1, 40))
            again = PuiseuxUnit(u.den, u.body)
            assert again.den == u.den and again.body.coeffs == u.body.coeffs

    def test_nonunit_rejected(self):
        with pytest.raises(NotAUnit):
            U(2, 0b10, 3)

    def test_tower_compatibility(self):
        # re-gridding onto a finer grid leaves the represented element fixed
        rng = random.Random(4)
        for _ in range(50):
            u = random_unit(rng, rng.choice((1, 2, 3)), rng.randrange(1, 30))
            m = rng.choice((2, 3, 4, 5))
            from f2puiseux.bitops import spread
            regridded = U(u.den * m, spread(u.body.coeffs, m),
                          u.body.prec * m)
            assert regridded.den == u.den  # normalization undoes the lift
            assert regridded.body.coeffs == u.body.coeffs
            assert units_agree(regridded, u)


class TestLongNumbersInMessages:
    """A number of more than 40 digits is named by its digit count."""

    def test_den(self):
        with pytest.raises(ValueError,
                           match="^den must be >= 1, got -<5001 digits>$"):
            U(-10 ** 5000, 1, 1)
        with pytest.raises(ValueError, match="^den must be >= 1, got 0$"):
            U(0, 1, 1)

    def test_cap(self):
        with pytest.raises(DenominatorOverflow,
                           match="^grid denominator <5002 digits> exceeds "
                                 "the cap <5001 digits>$"):
            unit_sqrt(U(10 ** 5001, 0b11, 2), den_cap=10 ** 5000)
        with pytest.raises(DenominatorOverflow,
                           match=f"^grid denominator {2 * 10 ** 39} exceeds "
                                 f"the cap {10 ** 39}$"):
            unit_sqrt(U(10 ** 39, 0b11, 2), den_cap=10 ** 39)


class TestUnitMul:
    def test_mixed_grids(self):
        # (1+x)(1+x^(1/2)) on the common half grid
        out = unit_mul(U(1, 0b11, 2), U(2, 0b11, 4))
        assert out.den == 2 and out.body.coeffs == 0b1111

    def test_identity(self):
        rng = random.Random(9)
        for _ in range(20):
            u = random_unit(rng, 3, 12)
            assert unit_mul(u, PuiseuxUnit.one(1)) == u

    def test_inverse_law(self):
        rng = random.Random(10)
        for _ in range(20):
            u = random_unit(rng, 4, 17)
            assert unit_mul(u, unit_inv(u)).is_identity()

    def test_matches_term_oracle(self):
        rng = random.Random(12)
        for _ in range(60):
            u = random_unit(rng, rng.choice((1, 2, 3, 4, 6)),
                            rng.randrange(1, 24))
            v = random_unit(rng, rng.choice((1, 2, 3, 4, 6)),
                            rng.randrange(1, 24))
            prod = unit_mul(u, v)
            want = term_product(unit_terms(u), unit_terms(v), prod.aprec)
            assert unit_terms(prod) == want
        # grids and precisions both differ, (den, aprec) on each side
        for (du, au), (dv, av) in (((1, 40), (12, 3)), ((2, 9), (3, 11)),
                                   ((5, 1), (4, 6)), ((16, 3), (6, 2)),
                                   ((7, 13), (1, 2))):
            u = random_unit(rng, du, du * au)
            v = random_unit(rng, dv, dv * av)
            for a, b in ((u, v), (v, u)):
                prod = unit_mul(a, b)
                assert prod.aprec == min(au, av)
                want = term_product(unit_terms(a), unit_terms(b), prod.aprec)
                assert unit_terms(prod) == want

    @pytest.mark.parametrize("sparse,dense", [(1, 2), (6, 2), (3, 4),
                                              (12, 8), (7, 5), (1, 8),
                                              (8, 1)])
    def test_mixed_grids_above_the_split_cutoff(self, sparse, dense):
        # the unit on the coarser grid multiplies there at the stride m.
        # The unit on the grid 1/sparse holds one term fewer than the
        # kernel's comb switch for its length, or just enough, so the
        # kernel walks it on either side of the switch, at the stride or
        # against the spread body; the term oracle stays cheap at a few
        # hundred thousand products
        rng = random.Random(sparse * 100 + dense)
        d = lcm(sparse, dense)
        aprec = Q(2048 * (d // min(sparse, dense)) + 3, d)
        prec = ceil(aprec * sparse)
        switch = comb_switch(prec)
        for weight in (switch - 1, switch):
            body = sum(1 << j for j in rng.sample(range(1, prec), weight - 1))
            u = U(sparse, body | 1, prec)
            v = random_unit(rng, dense, ceil(aprec * dense))
            prod = unit_mul(u, v)
            assert prod.aprec >= aprec
            assert unit_terms(prod) == term_product(
                unit_terms(u), unit_terms(v), prod.aprec)

    def test_cap_enforced(self):
        with pytest.raises(DenominatorOverflow):
            unit_mul(U(5, 1, 1), U(7, 1, 1), den_cap=20)

    def test_regrids_only_below_the_common_precision(self):
        # the product is known only to O(x^(1)), where the dense body is
        # just 1: spreading all of it onto the grid 1/65536 first would
        # build a 1.3e8-bit intermediate
        dense = U(1, (1 << 2000) - 1, 2000)
        fine = U(1 << 16, 0b11, 1 << 16)
        tracemalloc.start()
        try:
            prod = unit_mul(dense, fine)
            agree = units_agree(dense, fine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (prod.den, prod.body.coeffs, prod.body.prec) == (
            fine.den, fine.body.coeffs, fine.body.prec)
        assert not agree
        assert units_agree(dense, PuiseuxUnit.one(1 << 16, 1 << 16))


def units_up_to(prec, dens):
    """Every unit on each grid 1/den of dens, at each precision index
    1..prec."""
    return [U(den, (bits << 1) | 1, n) for den in dens
            for n in range(1, prec + 1) for bits in range(1 << (n - 1))]


def twin(rng, u):
    """A unit equal to u at the common precision, or, now and then, one
    bit away: u re-gridded by m, with a precision index that may block
    normalization and random bits at or past u's precision, or u
    truncated on its own grid."""
    if rng.random() < 0.5:
        m = rng.randint(1, 6)
        prec = u.body.prec * m + rng.randint(-m + 1, 5)
        bits = spread(u.body.coeffs, m) | rng.getrandbits(8) << u.body.prec * m
        den = u.den * m
    else:
        den, prec = u.den, rng.randint(1, u.body.prec)
        bits = u.body.coeffs
    if prec > 1 and rng.random() < 0.3:
        bits ^= 1 << rng.randrange(1, prec)
    return U(den, bits, prec)


class TestUnitsAgree:
    """units_agree reads each body on its own grid, never on the common
    one; the oracle compares exponent sets as Fractions."""

    def test_every_pair_at_small_precision(self):
        units = units_up_to(5, (1, 2, 3, 4, 6))
        for u in units:
            for v in units:
                assert units_agree(u, v) == reference_units_agree(u, v), (
                    stored(u), stored(v))

    def test_seeded_pairs_and_twins(self):
        # a quarter of the pairs independent, the rest a unit and its
        # re-gridded, truncated or one-bit-perturbed twin, either way round
        rng = random.Random(61)
        agreed = 0
        for _ in range(20000):
            u = random_unit(rng, rng.randint(1, 35), rng.randint(1, 24))
            v = (random_unit(rng, rng.randint(1, 35), rng.randint(1, 24))
                 if rng.random() < 0.25 else twin(rng, u))
            if rng.random() < 0.5:
                u, v = v, u
            want = reference_units_agree(u, v)
            assert units_agree(u, v) == want, (stored(u), stored(v))
            agreed += want
        assert 5000 < agreed < 15000

    def test_coprime_grids_compare_without_a_common_grid(self):
        # on the grids 1/65536 and 1/65535, 4096 steps each, the common
        # grid would spread each body to about 2.7e8 bits
        rng = random.Random(67)
        u = random_unit(rng, 1 << 16, 4096)
        v = random_unit(rng, (1 << 16) - 1, 4096)
        # u re-gridded by 3, its odd precision index blocking normalization
        w = U(3 << 16, spread(u.body.coeffs, 3), 3 * 4096 + 1)
        assert (u.den, v.den, w.den) == (1 << 16, (1 << 16) - 1, 3 << 16)
        tracemalloc.start()
        try:
            agree = units_agree(u, v), units_agree(w, u), units_agree(v, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert agree == (False, True, False)


class TestUnitInv:
    def test_geometric(self):
        out = unit_inv(U(2, 0b11, 4))
        assert out.body.coeffs == 0b1111 and out.aprec == 2

    def test_preserves_precision(self):
        u = U(3, 0b1011, 7)
        assert unit_inv(u).aprec == u.aprec


class TestUnitSqrt:
    def test_integer_becomes_half_grid(self):
        out = unit_sqrt(U(1, 0b11, 2))
        assert out.den == 2 and out.body.coeffs == 0b11
        assert out.aprec == 1

    def test_identity(self):
        assert unit_sqrt(PuiseuxUnit.one(4)).is_identity()

    def test_half_grid_example(self):
        out = unit_sqrt(U(2, 0b111, 4))
        assert out.den == 4 and out.body.coeffs == 0b111
        assert unit_pow(out, 2) == U(2, 0b111, 4)

    def test_square_round_trip(self):
        rng = random.Random(21)
        for _ in range(60):
            u = random_unit(rng, rng.choice((1, 2, 3, 6)),
                            rng.randrange(1, 50))
            r = unit_sqrt(u)
            assert r.aprec == u.aprec / 2
            assert units_agree(unit_pow(r, 2), u)

    def test_cap_enforced(self):
        with pytest.raises(DenominatorOverflow):
            unit_sqrt(U(16, 0b11, 2), den_cap=16)

    def test_cap_read_on_the_normalized_grid(self):
        # 1 + x^(2/3) on den 3 has its root 1 + x^(1/3) on den 3, not 6
        out = unit_sqrt(U(3, 0b101, 4), den_cap=5)
        assert (out.den, out.body.coeffs, out.body.prec) == (3, 0b11, 2)
        with pytest.raises(DenominatorOverflow,
                           match="grid denominator 6 exceeds the cap 5"):
            unit_sqrt(U(3, 0b11, 2), den_cap=5)


class TestUnitRoot:
    def test_k_one(self):
        u = U(3, 0b101, 4)
        assert unit_root(u, 1) == u

    @pytest.mark.parametrize("k", [0, -1])
    def test_index_below_one(self, k):
        with pytest.raises(ValueError) as info:
            unit_root(U(3, 0b101, 4), k)
        assert type(info.value) is ValueError
        assert str(info.value) == f"root index must be >= 1, got {k}"

    def test_long_index_named_by_its_digit_count(self):
        with pytest.raises(ValueError,
                           match="^root index must be >= 1, got "
                                 "-<5001 digits>$"):
            unit_root(U(3, 0b101, 4), -10 ** 5000)

    def test_cube_root(self):
        out = unit_root(U(1, 0b11, 3), 3)
        assert out.den == 1 and out.body.coeffs == 0b111

    def test_sixth_root(self):
        out = unit_root(U(1, 0b11, 3), 6)
        assert out.den == 2 and out.body.coeffs == 0b111
        assert out.aprec == Q(3, 2)

    def test_round_trip_and_contraction(self):
        rng = random.Random(31)
        for _ in range(40):
            u = random_unit(rng, rng.choice((1, 2, 3)), rng.randrange(4, 64))
            k = rng.randrange(1, 13)
            two_part = k & -k
            r = unit_root(u, k)
            assert r.aprec == u.aprec / two_part
            assert units_agree(unit_pow(r, k), u)
            assert units_agree(unit_root(unit_pow(u, k), k), u)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 9])
    def test_root_uniqueness_by_perturbation(self, k):
        rng = random.Random(100 + k)
        u = random_unit(rng, 2, 128)
        r = unit_root(u, k)
        # flip the first fractional coefficient of the root: the result
        # still has residue 1, but its k-th power must leave u
        tampered = PuiseuxUnit(
            r.den, F2Series(r.body.coeffs ^ 2, r.body.prec))
        assert not units_agree(unit_pow(tampered, k), u)


class TestOddRootsAgainstLifting:
    """series._power, unit_root and the scalar action by 1/k against
    oracles.lifted_root, which fixes one coefficient per step from
    convolutions and never inverts k modulo a power of 2."""

    def test_oracle_on_a_known_root(self):
        # (1 + t + t**2)**3 = 1 + t modulo t**3
        assert lifted_root(0b11, 3, 3) == 0b111

    @pytest.mark.parametrize("prec", [1, 2, 3, 31, 64, 65, 128])
    def test_odd_roots(self, prec):
        rng = random.Random(prec)
        for k in (1, 3, 5, 7, 15, 31):
            bits = rng.getrandbits(prec) | 1
            assert series._power(bits, 1, k, prec) == lifted_root(
                bits, k, prec), k
            # an odd root stays on the grid and precision of its unit
            u = U(rng.choice((1, 2, 3)), bits, prec)
            den, body = u.den, u.body
            want = den, lifted_root(body.coeffs, k, body.prec), body.prec
            for got in (unit_root(u, k), scalar_mul_unit(Q(1, k), u)):
                assert (got.den, got.body.coeffs, got.body.prec) == want, k


class TestScalarAction:
    def test_two_thirds_example(self):
        out = scalar_mul_unit(Q(2, 3), U(1, 0b11, 3))
        assert out.den == 1 and out.body.coeffs == 0b101

    def test_one_and_zero(self):
        u = U(2, 0b1011, 5)
        assert scalar_mul_unit(1, u) == u
        assert scalar_mul_unit(0, u).is_identity()

    def test_half_is_sqrt(self):
        out = scalar_mul_unit(Q(1, 2), U(1, 0b11, 2))
        assert out.den == 2 and out.body.coeffs == 0b11

    def test_negative_scalar(self):
        u = U(1, 0b111, 6)
        assert units_agree(scalar_mul_unit(-1, u), unit_inv(u))

    def test_power_and_root_commute(self):
        rng = random.Random(41)
        for _ in range(30):
            u = random_unit(rng, rng.choice((1, 2, 3)), 48)
            p = rng.randrange(-6, 7)
            q = rng.randrange(1, 7)
            a = unit_root(unit_pow(u, p), q)
            b = unit_pow(unit_root(u, q), p)
            assert units_agree(a, b)

    def test_action_laws_sampled(self):
        rng = random.Random(43)
        for _ in range(25):
            u = random_unit(rng, rng.choice((1, 2, 4)), 64)
            v = random_unit(rng, rng.choice((1, 2, 4)), 64)
            r = Q(rng.randrange(-5, 6), rng.randrange(1, 6))
            s = Q(rng.randrange(-5, 6), rng.randrange(1, 6))
            assert units_agree(
                scalar_mul_unit(r + s, u),
                unit_mul(scalar_mul_unit(r, u), scalar_mul_unit(s, u)))
            assert units_agree(
                scalar_mul_unit(r, unit_mul(u, v)),
                unit_mul(scalar_mul_unit(r, u), scalar_mul_unit(r, v)))
            assert units_agree(
                scalar_mul_unit(r * s, u),
                scalar_mul_unit(r, scalar_mul_unit(s, u)))

    def test_cap_is_checked_at_each_square_root(self):
        # the first root crossing the cap is named; a grid that contracts
        # after a root is checked at its contracted size
        with pytest.raises(DenominatorOverflow,
                           match="^grid denominator 4 exceeds the cap 2$"):
            scalar_mul_unit(Q(-9, 8), PuiseuxUnit.one(1), den_cap=2)
        out = unit_root(PuiseuxUnit(1, F2Series(0b101, 4)), 4, den_cap=2)
        assert format_unit(out) == "1 + x^(1/2) + O(x^(1))"

    def test_matches_power_then_root_composition(self):
        # precisions where the modulus 2**s of p/q changes; a seeded
        # subset of p in -20..20 and q in 1..49, the per-coefficient
        # reference being slow
        rng = random.Random(47)
        precs = sorted({(1 << j) + d for j in range(9) for d in (-1, 0, 1)}
                       - {0})
        for prec in precs:
            for _ in range(2):
                u = random_unit(rng, rng.choice((1, 2, 3)), prec)
                r = Q(rng.randrange(-20, 21), rng.randrange(1, 50))
                for cap in (DEFAULT_DEN_CAP, 8):
                    try:
                        want = reference_scalar_mul_unit(r, u, den_cap=cap)
                    except DenominatorOverflow as exc:
                        with pytest.raises(DenominatorOverflow) as info:
                            scalar_mul_unit(r, u, den_cap=cap)
                        assert str(info.value) == str(exc)
                        continue
                    got = scalar_mul_unit(r, u, den_cap=cap)
                    assert (got.den, got.body.coeffs, got.body.prec) == (
                        want.den, want.body.coeffs, want.body.prec), (prec, r)


class TestUnitPow:
    @pytest.mark.parametrize("e", [-2, -8])
    def test_negative_even_power_inverts_at_reduced_precision(
            self, e, monkeypatch):
        # u**(-c * 2**v) needs u**(-c) modulo x**ceil(prec / 2**v) only,
        # so its odd part is raised there and spread by 2**v
        honest, calls = series._power, []

        def recorded(a, p, k, prec):
            calls.append((p, k, prec))
            return honest(a, p, k, prec)
        monkeypatch.setattr(series, "_power", recorded)
        u = random_unit(random.Random(-e), 3, 4097)
        got = unit_pow(u, e)
        assert calls[0] == (e, 1, 4097)
        odd, k, prec = calls[1]
        assert (odd % 2, k, prec) == (1, 1, ceil(4097 / -e))
        # 2**13 is the exponent of the units modulo x**4097
        assert odd * -e % (1 << 13) == e % (1 << 13)
        assert unit_mul(got, unit_pow(u, -e)).is_identity()


ACT_DENS = (1, 2, 3, 4, 6, 8, 12, 16, 48)


def act_inputs(seed, precs):
    """Normalized units on every ACT_DENS grid at each precision, with
    bodies drawn at strides 1, 2 and 4, so that some contract."""
    rng = random.Random(seed)
    for den in ACT_DENS:
        for prec in precs:
            for m in (1, 2, 4):
                bits = spread(rng.getrandbits(-(-prec // m)) | 1, m)
                yield U(den, bits, prec)


def by_constructor(u, p, q):
    """u**(p/q) from the 2-adic coordinates, normalized by the public
    constructor on the grid den * 2**s, 2**s the 2-part of q."""
    s = (q & -q).bit_length() - 1
    bits = coordinate_power(u.body.coeffs, p, q >> s, u.body.prec)
    return U(u.den << s, bits, u.body.prec)


def stored(u):
    return u.den, u.body.coeffs, u.body.prec


class TestActPaths:
    """_act builds an odd power without the constructor's check, and an
    even power p on the grid den / 2**t, 2**t the largest power of 2
    dividing p, den and prec."""

    def test_odd_powers_and_roots_stay_normalized(self):
        for u in act_inputs(53, (1, 2, 5, 8, 12, 24, 48, 96)):
            for p, q in ((-1, 1), (3, 1), (-5, 1), (1, 3), (1, 5),
                         (-3, 7), (7, 9), (-1, 15)):
                r = _act(u, p, q, DEFAULT_DEN_CAP)
                assert support_gcd(r.body.coeffs,
                                   gcd(r.den, r.body.prec)) == 1
                assert stored(r) == stored(by_constructor(u, p, q)), (
                    stored(u), p, q)

    def test_even_powers_match_the_constructor(self):
        # prec with 2-adic valuation 0-4; 2**S is the exponent of the
        # units modulo t**prec, so u**(2**S) is 1
        for u in act_inputs(59, (1, 5, 6, 12, 40, 48)):
            big = 1 << (u.body.prec - 1).bit_length()
            for p in (0, 2, -2, 6, -6, 8, -8, big, 3 * big):
                for q in (1, 2, 3, 4, 12):
                    got = _act(u, p, q, DEFAULT_DEN_CAP)
                    assert stored(got) == stored(by_constructor(u, p, q)), (
                        stored(u), p, q)


def coordinates_on(w, den, prec):
    """2-adic coordinates of w in t = x**(1/den), below the index prec."""
    return unit_coordinates(reference_spread(w.body.coeffs, den // w.den),
                            prec)


def scaled(coords, c):
    return {n: c * a for n, a in coords.items()}


class TestCoordinates:
    """Products add 2-adic coordinates, and u**(p/q) for odd q has q
    times its coordinates equal to p times those of u."""

    COORD_PRECS = [1, 2, 3, 63, 64, 65, 256]

    @pytest.mark.parametrize("prec", COORD_PRECS)
    def test_products_add_coordinates(self, prec):
        rng = random.Random(prec)
        for _ in range(20):
            den = rng.choice((1, 3))
            u, v = random_unit(rng, den, prec), random_unit(rng, den, prec)
            cu, cv = coordinates_on(u, den, prec), coordinates_on(v, den, prec)
            want = {n: cu.get(n, 0) + cv.get(n, 0) for n in cu.keys() | cv}
            assert coordinates_match(
                coordinates_on(unit_mul(u, v), den, prec), want, prec)

    @pytest.mark.parametrize("prec", COORD_PRECS)
    def test_mixed_grid_products_add_coordinates(self, prec):
        # in t = x**(1/d) on the common grid of two units whose grids
        # divide d, each known below t**prec
        rng = random.Random(prec)
        for _ in range(20):
            du, dv = rng.sample((1, 2, 3, 4, 6, 8, 12), 2)
            d = lcm(du, dv)
            u = random_unit(rng, du, -(-prec * du // d))
            v = random_unit(rng, dv, -(-prec * dv // d))
            cu, cv = coordinates_on(u, d, prec), coordinates_on(v, d, prec)
            want = {n: cu.get(n, 0) + cv.get(n, 0) for n in cu.keys() | cv}
            assert coordinates_match(
                coordinates_on(unit_mul(u, v), d, prec), want, prec), (du, dv)

    @pytest.mark.parametrize("prec", COORD_PRECS)
    def test_square_root_keeps_coordinates_on_the_finer_grid(self, prec):
        # the root of u has, in t = x**(1/(2 den)), the coordinates u has
        # in t = x**(1/den): half those of u on the finer grid
        rng = random.Random(prec)
        for _ in range(20):
            den = rng.choice((1, 2, 3, 6))
            u = random_unit(rng, den, prec)
            got = coordinates_on(unit_sqrt(u), 2 * den, prec)
            assert coordinates_match(got, coordinates_on(u, den, prec), prec)
            assert coordinates_match(scaled(got, 2),
                                     coordinates_on(u, 2 * den, prec), prec)

    @pytest.mark.parametrize("prec", COORD_PRECS)
    def test_scalar_action_divides_coordinates(self, prec):
        # every p in -20..20 against every odd q <= 49, one unit per p
        rng = random.Random(prec)
        for p in range(-20, 21):
            den = rng.choice((1, 3))
            u = random_unit(rng, den, prec)
            want = scaled(coordinates_on(u, den, prec), p)
            for q in range(1, 50, 2):
                got = coordinates_on(scalar_mul_unit(Q(p, q), u), den, prec)
                assert coordinates_match(scaled(got, q), want, prec), (p, q)


class TestElements:
    def test_valuations_add(self):
        a = compose(Q(1, 2), PuiseuxUnit.one(1))
        b = compose(Q(1, 3), PuiseuxUnit.one(1))
        out = element_mul(a, b)
        assert out.val == Q(5, 6) and out.unit.is_identity()

    def test_inverse_cancels(self):
        rng = random.Random(51)
        for _ in range(20):
            a = L0Element(Q(rng.randrange(-9, 9), rng.randrange(1, 9)),
                          random_unit(rng, 2, 20))
            prod = element_mul(a, element_inv(a))
            assert prod.val == 0 and prod.unit.is_identity()

    def test_mul_splits_componentwise(self):
        rng = random.Random(52)
        for _ in range(30):
            a = L0Element(Q(rng.randrange(-9, 9), rng.randrange(1, 9)),
                          random_unit(rng, rng.choice((1, 2, 3)), 24))
            b = L0Element(Q(rng.randrange(-9, 9), rng.randrange(1, 9)),
                          random_unit(rng, rng.choice((1, 2, 6)), 24))
            val, unit = decompose(element_mul(a, b))
            assert val == a.val + b.val
            assert units_agree(unit, unit_mul(a.unit, b.unit))

    def test_scalar_mul_example(self):
        # (2/3) . x^(1/2)(1+x): valuation scales, unit becomes 1+x^2
        a = L0Element(Q(1, 2), U(1, 0b11, 3))
        out = element_scalar_mul(Q(2, 3), a)
        assert out.val == Q(1, 3)
        assert out.unit.body.coeffs == 0b101

    def test_scalar_zero_and_pow(self):
        a = L0Element(Q(3, 2), U(1, 0b11, 4))
        zero = element_scalar_mul(0, a)
        assert zero.val == 0 and zero.unit.is_identity()
        sq = element_pow(a, 2)
        assert sq.val == 3 and sq.unit.body.coeffs == 0b101
        assert elements_agree(element_pow(a, -1), element_inv(a))

    def test_element_root(self):
        a = L0Element(Q(1), PuiseuxUnit.one(4))
        out = element_root(a, 2)
        assert out.val == Q(1, 2)
        # an index below 1 is refused before the valuation is divided
        for k in (0, -1):
            with pytest.raises(ValueError) as info:
                element_root(a, k)
            assert type(info.value) is ValueError
            assert str(info.value) == f"root index must be >= 1, got {k}"


class TestDecomposeRaw:
    def test_leading_term_extraction(self):
        out = decompose_raw([Q(-5, 3), Q(-4, 3)], Q(2))
        assert out.val == Q(-5, 3)
        assert out.unit.den == 3 and out.unit.body.coeffs == 0b11
        assert out.unit.aprec == Q(11, 3)

    def test_trivial(self):
        out = decompose_raw([0], 1)
        assert out.val == 0 and out.unit.is_identity()

    def test_half_grid_example(self):
        out = decompose_raw([Q(1, 2), 1, Q(3, 2)], 2)
        assert out.val == Q(1, 2)
        assert out.unit.den == 2 and out.unit.body.coeffs == 0b111
        assert out.unit.aprec == Q(3, 2)

    def test_duplicate_terms_cancel(self):
        out = decompose_raw([Q(1, 2), Q(1, 2), 1], 2)
        assert out.val == 1

    def test_all_cancelled_is_indistinguishable(self):
        with pytest.raises(Indistinguishable):
            decompose_raw([Q(1, 2), Q(1, 2)], 2)

    def test_empty_is_indistinguishable(self):
        with pytest.raises(Indistinguishable):
            decompose_raw([], 3)

    def test_term_beyond_precision_rejected(self):
        with pytest.raises(ValueError):
            decompose_raw([Q(1, 2)], Q(1, 4))

    def test_compose_decompose_identity(self):
        rng = random.Random(61)
        for _ in range(40):
            u = random_unit(rng, rng.choice((1, 2, 3, 4)),
                            rng.randrange(1, 30))
            val = Q(rng.randrange(-20, 20), rng.randrange(1, 10))
            a = compose(val, u)
            got_val, got_unit = decompose(a)
            assert got_val == val
            assert got_unit.den == u.den
            assert got_unit.body.coeffs == u.body.coeffs
            # re-expand to raw terms and decompose again
            raw = [val + e for e in u.exponents()]
            back = decompose_raw(raw, val + u.aprec)
            assert back.val == val
            assert back.unit.den == u.den
            assert back.unit.body.coeffs == u.body.coeffs
            assert back.unit.body.prec == u.body.prec

    def test_cap_enforced(self):
        with pytest.raises(DenominatorOverflow):
            decompose_raw([0, Q(1, 97)], 1, den_cap=50)

    def test_long_grid_denominator_named_by_its_digit_count(self):
        with pytest.raises(DenominatorOverflow,
                           match=f"^{LONG_GRID_ERROR}$"):
            decompose_raw([0, *LONG_GRID], 62)

    def test_long_term_named_by_its_digit_count(self):
        with pytest.raises(ValueError) as info:
            decompose_raw([10 ** 5000], 10 ** 5000)
        assert type(info.value) is ValueError
        assert str(info.value) == ("term x^(<5001 digits>) lies at or "
                                   "beyond the precision O(x^(<5001 digits>))")
        with pytest.raises(ValueError, match=(
                r"^term x\^\(1/3\) lies at or beyond the precision "
                r"O\(x\^\(1/4\)\)$")):
            decompose_raw([Q(1, 3)], Q(1, 4))


class TestDeepPrecision:
    """Sparse series with very large precision indices must stay cheap."""

    def test_operations_do_not_materialize_the_precision(self):
        deep = 10 ** 15
        a = L0Element(Q(-3), U(1, (1 << 7) | 1, deep))
        b = L0Element(Q(2), U(1, (1 << 2) | 1, deep + 1))
        ab = element_mul(a, b)
        assert ab.val == -1
        assert ab.unit.body.prec == deep
        assert ab.unit.body.coeffs == 1 | (1 << 2) | (1 << 7) | (1 << 9)
        assert repr(ab.unit).startswith("PuiseuxUnit(1 + x^(2)")

    def test_torsion_of_one_plus_x_up_to_twenty(self):
        # 1 + x: no power up to 20 collapses to 1 at precision 64
        u = U(1, 0b11, 64)
        p = PuiseuxUnit.one(64)
        for n in range(1, 21):
            p = unit_mul(p, u)
            assert not p.is_identity()
