"""Bit-level kernel for polynomials over GF(2) packed into Python ints.

A polynomial c_0 + c_1 t + ... + c_n t^n is stored as the integer
sum(c_j << j): bit j is the coefficient of t^j.  Python ints are
word-packed little-endian internally, so XOR, shifts and masks act on
whole words at C speed; this module only adds the operations ints do
not provide natively.

Products of operands with few set bits shift and XOR one copy of the
denser operand per set bit.  Above _COMB_CUTOFF set bits in the
sparser operand, clmul switches to a comb with an 8-bit window (after
Hankerson, Menezes and Vanstone, Guide to Elliptic Curve Cryptography,
Alg. 2.36): a 256-entry table holds the products of the denser operand
with every polynomial of degree below 8, and the sparser operand is
walked a byte at a time, one shift and one XOR per nonzero byte.  That
is about n/8 shift-XORs for an n-bit operand, each on ints of up to 2n
bits, so the comb is quadratic in word operations, with a small
constant.  The size sweep of a traced `dense` benchmark run
(perfbench/run.py --trace 1) fits a log-log scaling exponent of
1.48-1.52 over 2**10..2**16 bits, where the guard-field embedding that
the comb replaced fit 1.57-1.62.  The fit stays below 2 because the
table's fixed cost weighs most at the small end of the sweep; it is
not a sub-quadratic bound.

Spreading and gathering are string-based, all linear time (CPython
converts to and from power-of-two bases in linear time).  They carry
all re-gridding: a body moves to an m-times finer grid by spread, back
by compress, and x sits on the stride m iff spreading its compress
gives x back.  support_gcd finds the coarsest stride dividing a seed by
a gcd descent on that one test: from d = seed, each failed test names
the lowest set bit off the stride, whose index i the answer divides, so
d becomes gcd(d, i), a proper divisor; a passing test means d divides
every index, so d is the answer.  The descent therefore takes at most
one failed test per prime factor of the seed, counted with
multiplicity, and on a support that holds a small index, such as a
random body with bit 1 set, the first failure ends it.
"""

from __future__ import annotations

from math import gcd

# popcount of the sparser operand above which the comb's fixed cost of
# building its table is repaid; re-gridded operands are long but
# sparse, so bit length would misjudge them
_COMB_CUTOFF = 96


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed GF(2) polynomials."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    if a.bit_count() <= _COMB_CUTOFF:
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return acc
    # table[v] is b times the polynomial whose bits are those of v
    table = [0]
    for i in range(8):
        shifted = b << i
        table += [t ^ shifted for t in table]
    a_bytes = a.to_bytes((a.bit_length() + 7) // 8, "little")
    for i, byte in enumerate(a_bytes):
        if byte:
            acc ^= table[byte] << (8 * i)
    return acc


def trunc_bits(x: int, n: int) -> int:
    """x modulo 2**n, materializing a mask only when bits exceed n.

    Keeps sparse series with very large precision indices cheap: the
    shift probe is O(1) and any mask built is no larger than x itself.
    """
    return x if x >> n == 0 else x & ((1 << n) - 1)


def bit_indices(x: int):
    """Ascending indices of the set bits of x.

    One scan of the LSB-first binary digits, linear in the bit length
    of x; peeling the lowest bit off the int instead copies all of x
    per set bit, which is quadratic on dense operands.
    """
    digits = bin(x)[:1:-1]
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def spread(x: int, m: int) -> int:
    """Move bit j to bit m*j (re-grid onto an m-times finer exponent grid)."""
    if m == 1 or x == 0:
        return x
    return int(("0" * (m - 1)).join(bin(x)[2:]), 2)


def compress(x: int, m: int) -> int:
    """Move bit m*j to bit j, discarding bits off the stride.

    Inverse of spread on its image; x is on the stride m exactly when
    spread(compress(x, m), m) == x, which is how callers needing
    exactness check it.
    """
    if m == 1 or x == 0:
        return x
    return int(bin(x)[:1:-1][0::m][::-1], 2)


def support_gcd(x: int, seed: int) -> int:
    """Largest divisor of seed dividing every set-bit index of x.

    A gcd descent on linear-time stride tests (see the module
    docstring), so the cost does not grow with the number of set bits.
    Bit 0 sits on every stride; x = 0 imposes no constraint.
    """
    d = seed
    while d > 1:
        off = x ^ spread(compress(x, d), d)
        if not off:
            break
        d = gcd(d, (off & -off).bit_length() - 1)
    return d
