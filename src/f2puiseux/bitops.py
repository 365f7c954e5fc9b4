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
converts to and from power-of-two bases in linear time).
"""

from __future__ import annotations

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
    """Ascending indices of the set bits of x; cost scales with them."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def spread(x: int, m: int) -> int:
    """Move bit j to bit m*j (re-grid onto an m-times finer exponent grid)."""
    if m == 1 or x == 0:
        return x
    return int(("0" * (m - 1)).join(bin(x)[2:]), 2)


def compress(x: int, m: int) -> int:
    """Move bit m*j to bit j, discarding bits off the stride.

    Inverse of spread on its image; callers needing exactness must
    check the support first (or round-trip, as _on_stride does).
    """
    if m == 1 or x == 0:
        return x
    return int(bin(x)[:1:-1][0::m][::-1], 2)


def square(x: int) -> int:
    """Square in GF(2)[t]: the Frobenius map, a pure bit spread."""
    return spread(x, 2)


def even_part(x: int) -> tuple[int, bool]:
    """Gather bits at even positions; also report whether odd bits exist.

    Returns (y, clean) with bit j of y = bit 2j of x and clean true iff
    every odd-position bit of x is zero.
    """
    if x == 0:
        return 0, True
    rev = bin(x)[:1:-1]  # LSB-first digits
    odd = "1" in rev[1::2]
    return int(rev[0::2][::-1], 2), not odd


def _on_stride(x: int, m: int) -> bool:
    """True iff every set bit of x sits at a multiple of m."""
    return spread(compress(x, m), m) == x


def support_gcd(x: int, seed: int) -> int:
    """Largest divisor of seed dividing every set-bit index of x.

    Tested one prime-power factor of seed at a time with linear-time
    stride checks, so the cost does not grow with the number of set
    bits.  Bit 0 sits on every stride; x = 0 imposes no constraint.
    """
    if x == 0 or seed == 1:
        return seed
    d = 1
    rest = seed
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            while e > 0 and not _on_stride(x, p ** e):
                e -= 1
            d *= p ** e
        p += 1 if p == 2 else 2
    if rest > 1 and _on_stride(x, rest):
        d *= rest
    return d
