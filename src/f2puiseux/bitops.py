"""Bit-level kernel for polynomials over GF(2) packed into Python ints.

A polynomial c_0 + c_1 t + ... + c_n t^n is stored as the integer
sum(c_j << j): bit j is the coefficient of t^j.  Python ints are
word-packed little-endian internally, so XOR, shifts and masks act on
whole words at C speed; this module only adds the operations ints do
not provide natively.

Products of operands with few set bits shift and XOR one copy of the
denser operand per set bit.  Above a cutoff of set bits in the sparser
operand, clmul switches to a comb (after Hankerson, Menezes and
Vanstone, Guide to Elliptic Curve Cryptography, Alg. 2.36) whose
window w is sized to the walked, sparser operand: a table of 2**w
entries holds the products of the denser operand with every polynomial
of degree below w, and the sparser operand is walked w bits at a time
from its highest digit down by Horner's rule, acc = (acc << w) ^
table[digit]: one shift and one XOR per digit, and no digit is
reversed, indexed or tested for zero.  Below _WIDE_BITS bits w is 4:
the 16-entry table is one list display over the denser operand a
shifted by 0-3 places and the XORs of those, 11 XORs in all, and the
digits are read at C speed from the operand's hex string, translated
to the byte values 0-15.  The comb's cost grows with the walked length and
shift-and-XOR's with the set bits, so the cutoff does too: the 4-bit
comb is taken from more than (n + 60) / 10 set bits in an n-bit
operand.  From _WIDE_BITS bits w is 8, from _COMB_CUTOFF + 1 set bits,
and the digits are the bytes of to_bytes: there the shorter walk
outweighs the 256-entry table.  That is about n/w shift-XORs for an
n-bit operand, each on ints of up to 2n bits, so the comb is quadratic
in word operations, with a small constant.  The size sweep of a traced
`dense` benchmark run (perfbench/run.py --trace 1) fits a log-log
scaling exponent of 1.51-1.56 over 2**10..2**16 bits.  The fit stays
below 2 because the table's fixed cost weighs most at the small end of
the sweep; it is not a sub-quadratic bound.  With stride=m,
clmul returns a * spread(b, m) by shifting m times as far when it
walks b, so its table holds a * spread(v, m) and no spread is formed,
unless a is the sparser operand: then a is walked against
spread(b, m).

Spreading and compressing carry all re-gridding: a body moves to an
m-times finer grid by spread and back by compress.  Both run the
shift-and-mask cascade for a constant stride (Warren, Hacker's Delight,
2nd ed., ch. 7): a body of at most 2**w bits on the coarse grid takes
w rounds, each one shift, one OR and one AND on the whole int.  Round
r uses the mask M_r(m, w) of the bits p < m * 2**w with
p mod (m * 2**r) < 2**r; after spread's round r, bit j sits at
m * (j - j mod 2**r) + j mod 2**r.  Masks are built by doubling a
pattern, in time linear in their size, and held in one cache keyed by
(m, w) and bounded by the bits it holds; a key whose masks would
exceed the bound gets each mask built when its round needs it and
dropped after.

M_0(m, w) is the stride: x sits on the stride m exactly when
x & ~M_0 is 0, one AND.  support_gcd finds the coarsest stride dividing
a seed by a gcd descent on that one test: from d = seed, each failed
test names the lowest set bit off the stride, whose index i the answer
divides, so d becomes gcd(d, i), a proper divisor; a passing test means
d divides every index, so d is the answer.  The descent therefore takes
at most one failed test per prime factor of the seed, counted with
multiplicity, and on a support that holds a small index, such as a
random body with bit 1 set, the first failure ends it.
"""

from __future__ import annotations

import itertools
from math import gcd

# when clmul's comb repays its table, judged on the walked (sparser)
# operand: below _WIDE_BITS bits the 16-entry table of 4-bit windows
# from more than (n + 60) / 10 set bits in n bits, from _WIDE_BITS bits
# the 256-entry table of 8-bit windows from _COMB_CUTOFF + 1 set bits.
# Timed inside clmul (2-vCPU VM, Python 3.11, median of 11 interleaved
# rounds over 150 random products), the 4-bit comb beat shifting and
# XORing per set bit from 12 / 16 / 32 / 56 / 76 / 104 set bits on
# 64 / 128 / 256 / 512 / 768 / 1000-bit operands times a dense one of
# the same length; the 8-bit comb broke even with it at 90-110 on
# 1024-4096 bits, and the 4-bit comb took 0.4-0.9 times as long as the
# 8-bit one on dense operands of 128-640 bits and lost from about 900
# bits.  Set bits, not bits, are counted: re-gridded operands are long
# but sparse, so bit length alone would misjudge them
_COMB_CUTOFF = 96
_WIDE_BITS = 1024
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

# bits per set bit from which bit_indices walks str.find rather than
# selecting with itertools.compress; the two cost the same at about one
# set bit in 7 over 1024-65536 bits
_SPARSE_SCAN = 7
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")

# bits of re-gridding masks the cache may hold; it is cleared when a new
# key would overfill it, and a key larger than the bound is never kept
_MASK_BITS = 1 << 23
_MASKS: dict[tuple[int, int], tuple[int, ...]] = {}
_held_bits = 0


def clmul(a: int, b: int, *, stride: int = 1) -> int:
    """Carry-less product a * spread(b, stride) of GF(2) polynomials."""
    if a.bit_count() < b.bit_count():
        a, b, stride = spread(b, stride), a, 1
    w = _comb_window(b)
    acc = 0
    if not w:
        while b:
            low = b & -b
            acc ^= a << stride * (low.bit_length() - 1)
            b ^= low
        return acc
    # table[v] is a times the spread of the polynomial whose bits are v's
    if w == 4:
        a2 = a << stride
        a3 = a ^ a2
        a4 = a << 2 * stride
        a8 = a << 3 * stride
        a12 = a4 ^ a8
        table = [0, a, a2, a3,
                 a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
                 a8, a8 ^ a, a8 ^ a2, a8 ^ a3,
                 a12, a12 ^ a, a12 ^ a2, a12 ^ a3]
        digits = format(b, "x").encode().translate(_HEX_DIGITS)
    else:
        table = [0]
        for i in range(8):
            shifted = a << stride * i
            table += [t ^ shifted for t in table]
        digits = b.to_bytes((b.bit_length() + 7) // 8, "big")
    # Horner from the highest digit: one shift and one XOR per digit
    step = w * stride
    for digit in digits:
        acc = (acc << step) ^ table[digit]
    return acc


def _comb_window(b: int) -> int:
    """Bits per comb digit when clmul walks b, or 0 for shift-and-XOR."""
    n = b.bit_length()
    if n < _WIDE_BITS:
        return 4 if 10 * b.bit_count() > n + 60 else 0
    return 8 if b.bit_count() > _COMB_CUTOFF else 0


def trunc_bits(x: int, n: int) -> int:
    """x modulo 2**n, materializing a mask only when bits exceed n.

    Keeps sparse series with very large precision indices cheap: the
    shift probe is O(1) and any mask built is no larger than x itself.
    """
    return x if x >> n == 0 else x & ((1 << n) - 1)


def bit_indices(x: int):
    """Ascending indices of the set bits of x, as an iterator.

    One pass over the LSB-first binary digits, linear in the bit length
    of x; peeling the lowest bit off the int instead copies all of x per
    set bit, which is quadratic on dense operands.  On dense bodies the
    digits, translated to bytes 0 and 1, select from a range at C speed.
    On sparse ones, such as re-gridded bodies, str.find skips the runs
    of zeros at C speed and Python steps once per set bit, which is
    faster.  Either way at most two n-byte copies of the digits are
    alive at once.
    """
    n = x.bit_length()
    if x.bit_count() * _SPARSE_SCAN < n:
        return _find_ones(bin(x)[:1:-1])
    return itertools.compress(
        range(n), bin(x).encode()[:1:-1].translate(_BINARY_DIGITS))


def _find_ones(digits: str):
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def _mask(m: int, w: int, r: int) -> int:
    """M_r(m, w), by doubling its 2**r low bits out to m * 2**w bits."""
    mask, span = (1 << (1 << r)) - 1, m << r
    for _ in range(w - r):
        mask |= mask << span
        span <<= 1
    return mask


class _Unkept:
    """The masks of a key too large for the cache, each built when its
    round reads it and dropped after."""

    def __init__(self, m: int, w: int):
        self.m, self.w = m, w

    def __getitem__(self, r: int) -> int:
        return _mask(self.m, self.w, r)


def _masks(m: int, w: int):
    """M_0..M_w of the key (m, w), from the cache when they fit its bound."""
    global _held_bits
    masks = _MASKS.get((m, w))
    if masks is None:
        bits = (w + 1) * (m << w)
        if bits > _MASK_BITS:
            return _Unkept(m, w)
        if _held_bits + bits > _MASK_BITS:
            _MASKS.clear()
            _held_bits = 0
        masks = _MASKS[m, w] = tuple(_mask(m, w, r) for r in range(w + 1))
        _held_bits += bits
    return masks


def _stride_mask(m: int, n: int) -> int:
    """M_0 for an n-bit body: the bits on the stride m."""
    return _masks(m, ((n - 1) // m).bit_length())[0]


def spread(x: int, m: int) -> int:
    """Move bit j to bit m*j (re-grid onto an m-times finer exponent grid)."""
    if m == 1 or x == 0:
        return x
    w = (x.bit_length() - 1).bit_length()
    masks = _masks(m, w)
    for r in range(w - 1, -1, -1):
        x = (x | x << ((m - 1) << r)) & masks[r]
    return x


def compress(x: int, m: int) -> int:
    """Move bit m*j to bit j, discarding bits off the stride.

    Inverse of spread on its image: spread's cascade run backwards, after
    the stride mask M_0 has dropped the bits off the stride.
    """
    if m == 1 or x == 0:
        return x
    w = ((x.bit_length() - 1) // m).bit_length()
    masks = _masks(m, w)
    x &= masks[0]
    for r in range(w):
        x = (x | x >> ((m - 1) << r)) & masks[r + 1]
    return x


def support_gcd(x: int, seed: int) -> int:
    """Largest divisor of seed dividing every set-bit index of x.

    A gcd descent on one-AND stride tests (see the module docstring),
    so the cost does not grow with the number of set bits.  Bit 0 sits
    on every stride; x = 0 imposes no constraint.
    """
    d, n = seed, x.bit_length()
    while d > 1:
        off = x & ~_stride_mask(d, n)
        if not off:
            break
        d = gcd(d, (off & -off).bit_length() - 1)
    return d
