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
base modulo t**ceil(prec / 2**v).  So one loop walks the set bits of e
from the top, the left-to-right binary method (Knuth, TAOCP vol. 2,
4.6.3) with the squarings between two set bits taken as one spread:
a**(e >> i), for a set bit i, is a times a**(e >> j) spread by
2**(j - i), j the set bit above, known modulo t**ceil(prec / 2**i),
and a**e is the last of these spread by 2**i.  As e < 2**s, that is at
most s, about log2(prec), rungs whatever p and k are.  Before the first
rung one O(1) test bounds the result, at most min(prec, (bits of a - 1)
* e + 1) bits, by _BIT_BUDGET: a power past it raises OutOfRange, and a
sparse one at a huge precision still answers.

Products with a spread operand stay on the coarse grid.  As t -> t**m
is a ring endomorphism of GF(2)[t], a * spread(z, m) is one stride
product clmul(a, z, stride=m) (see bitops).  That covers every rung of
the power's loop, so no square is formed, and a unit product across
two grids.
"""

from __future__ import annotations

from ._value import Value
from .bitops import (bit_indices, clmul, compress, spread, support_gcd,
                     trunc_bits)
from .errors import EvenK, NotAUnit, OddSupport, OutOfRange, _brief

# the most bits a power may hold: a**p modulo t**prec, p reduced, holds
# at most min(prec, (a.bit_length() - 1) * p + 1), and past the budget
# _power raises OutOfRange before its first product.  The harnesses read
# it here too, for their sample grids.  A dense inverse or cube root took
# 0.30-0.36 s at 2**18 bits, 1.6-1.8 s at 2**19, 5.1-6.8 s at 2**20 and
# 20-31 s at 2**21 (Python 3.11.7, 2-vCPU VM); the largest input of the
# tests, demos, README and benchmark is README's 2**18-term inverse
_BIT_BUDGET = 1 << 20


class F2Series(Value):
    """Bit-packed series over GF(2), known modulo t**prec."""

    __slots__ = __match_args__ = ("coeffs", "prec")

    def __init__(self, coeffs: int, prec: int):
        if prec < 1:
            raise ValueError(f"prec must be >= 1, got {_brief(prec)}")
        if coeffs < 0:
            raise ValueError("coefficient bits must be nonnegative")
        # canonical storage: construction truncates at prec
        object.__setattr__(self, "coeffs", trunc_bits(coeffs, prec))
        object.__setattr__(self, "prec", prec)

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
    # of the units; a non-unit's powers from a**prec on are 0.  From the
    # top set bit j of p down, y = a**(p >> j) modulo t**ceil(prec / 2**j):
    # a at the top, and a times the spread of y by 2**(j - i) at each
    # lower set bit i, which becomes j
    mod = 1 << (prec - 1).bit_length()
    p = p * pow(k, -1, mod) % mod if a & 1 else min(p, prec)
    if prec > _BIT_BUDGET and (
            bits := min(prec, (a.bit_length() - 1) * p + 1)) > _BIT_BUDGET:
        raise OutOfRange(f"a power of {_brief(bits)} bits exceeds the "
                         f"budget of {_brief(_BIT_BUDGET)} bits")
    if p == 0:
        return 1
    j = p.bit_length() - 1
    y = trunc_bits(a, -(-prec >> j))
    for i in range(j - 1, -1, -1):
        if p >> i & 1:
            y, j = _mul_spread(trunc_bits(a, q := -(-prec >> i)), y,
                               1 << j - i, q), i
    return spread(y, 1 << j) if j else y
