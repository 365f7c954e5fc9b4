"""Truncated formal power series over GF(2) in one variable t.

An F2Series is a pair (coeffs, prec): the series is known modulo
t**prec, and bit j of coeffs is the coefficient of t**j.  Bits at or
above prec are never stored.  Binary operations propagate precision as
the minimum of the operands' precisions; comparisons across different
precisions truncate both sides to the smaller one first.

Every power a**(p/k) of a unit, odd k >= 1 and integer p, is one entry,
_power, and it is an integer power.  As squaring is additive in
characteristic 2, (1 + f)**(2**s) = 1 + f**(2**s), so modulo t**prec
the units form a group of exponent 2**s, 2**s the least power of 2 at
or above prec: a Z/2**s-module, in which k is invertible.  So a**(p/k)
is a**e with e = p * k**-1 mod 2**s; the inverse is (p, k) = (-1, 1),
the k-th root p = 1.  A 2**v-th power is a bit spread, exact from its
base modulo t**ceil(prec / 2**v), and an odd power a**(2n + 1) is a
times a spread of a**n, so each step of the exponent's ladder at least
halves the precision it recurses at, and the recursion is about
log2(prec) deep whatever p and k are.

Products with a spread operand stay on the coarse grid.  As t -> t**m
is a ring endomorphism of GF(2)[t], a * spread(z, m) is one stride
product clmul(a, z, stride=m) (see bitops).  That covers every odd
power (a * a**(2n) is a * spread(a**(2n/m), m), so no square is formed)
and a unit product across two grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitops import (bit_indices, clmul, compress, spread, support_gcd,
                     trunc_bits)
from .errors import EvenK, NotAUnit, OddSupport, _brief


@dataclass(frozen=True, eq=False)
class F2Series:
    """Bit-packed series over GF(2), known modulo t**prec."""

    coeffs: int
    prec: int

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError(f"prec must be >= 1, got {_brief(self.prec)}")
        if self.coeffs < 0:
            raise ValueError("coefficient bits must be nonnegative")
        # canonical storage: construction truncates at prec
        object.__setattr__(self, "coeffs", trunc_bits(self.coeffs, self.prec))

    @classmethod
    def one(cls, prec: int) -> "F2Series":
        return cls(1, prec)

    def is_unit(self) -> bool:
        return bool(self.coeffs & 1)

    def __eq__(self, other):
        if not isinstance(other, F2Series):
            return NotImplemented
        p = min(self.prec, other.prec)
        return trunc_bits(self.coeffs ^ other.coeffs, p) == 0

    __hash__ = None  # equality is truncation-relative

    def __repr__(self):
        terms = [f"t^{j}" if j > 1 else ("t" if j else "1")
                 for j in bit_indices(self.coeffs)]
        body = " + ".join(terms) if terms else "0"
        return f"F2Series({body} + O(t^{self.prec}))"


def add(a: F2Series, b: F2Series) -> F2Series:
    """Coefficientwise XOR; precision is the minimum of the operands'."""
    p = min(a.prec, b.prec)
    return F2Series(a.coeffs ^ b.coeffs, p)


def mul(a: F2Series, b: F2Series) -> F2Series:
    """Carry-less product truncated to the minimum precision."""
    p = min(a.prec, b.prec)
    return F2Series(clmul(trunc_bits(a.coeffs, p), trunc_bits(b.coeffs, p)), p)


def pow_int(a: F2Series, e: int) -> F2Series:
    """a**e for e >= 0, truncated to a.prec."""
    if e < 0:
        raise ValueError("exponent must be nonnegative; invert first")
    return F2Series(_power(a.coeffs, e, 1, a.prec), a.prec)


def inv(a: F2Series) -> F2Series:
    """Inverse of a unit, to the same precision."""
    if not a.is_unit():
        raise NotAUnit("series has constant coefficient 0")
    return F2Series(_power(a.coeffs, -1, 1, a.prec), a.prec)


def sqrt(a: F2Series) -> F2Series:
    """Square root of an even-support series: bit j of the root is bit 2j.

    The result is known modulo t**ceil(prec/2).
    """
    if support_gcd(a.coeffs, 2) < 2:
        raise OddSupport("series has a nonzero coefficient at an odd exponent")
    return F2Series(compress(a.coeffs, 2), (a.prec + 1) // 2)


def kth_root_odd(a: F2Series, k: int) -> F2Series:
    """The unique k-th root with constant coefficient 1, for odd k >= 1."""
    if k < 1 or k % 2 == 0:
        raise EvenK(f"k must be a positive odd integer, got {_brief(k)}")
    if not a.is_unit():
        raise NotAUnit("series has constant coefficient 0")
    return F2Series(_power(a.coeffs, 1, k, a.prec), a.prec)


# ---------------------------------------------------------------------------
# int-level implementations (operands already truncated to prec)

def _mul_spread(a: int, z: int, m: int, prec: int) -> int:
    # a * spread(z, m) modulo t**prec, for a < 2**prec
    return trunc_bits(clmul(a, trunc_bits(z, -(-prec // m)), stride=m), prec)


def _power(a: int, p: int, k: int, prec: int) -> int:
    # a**(p/k) modulo t**prec, odd k >= 1; a is a unit unless k = 1 <= p.
    # For a unit, p/k is the integer p * k**-1 modulo the exponent 2**s
    # of the units.  Its 2**v part spreads, and an odd 2n + 1 multiplies
    # a by spread(a**(n/m), 2m), m the 2-power part of n, on the coarse grid
    if k > 1 or p < 0:
        mod = 1 << (prec - 1).bit_length()
        p = p * pow(k, -1, mod) % mod
    if p == 0:
        return 1
    if p == 1 or prec == 1:
        return trunc_bits(a, prec)
    v = (p & -p).bit_length() - 1
    if v:
        return spread(_power(a, p >> v, 1, -(-prec >> v)), 1 << v)
    n = p >> 1
    m = n & -n
    return _mul_spread(trunc_bits(a, prec),
                       _power(a, n // m, 1, -(-prec // (2 * m))), 2 * m, prec)
