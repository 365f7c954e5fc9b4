"""Which finite fields have a multiplicative group that is a linear space.

The multiplicative group of the field with q elements is cyclic of
order q - 1.  A cyclic group is a linear space over some field exactly
when it is trivial or elementary abelian, which for a cyclic group
forces prime order; unwinding q = p**n, the answer is yes precisely
for q = 2 (dimension 0), q = 3 (over the field with 2 elements), and
q = 2**r with 2**r - 1 a Mersenne prime (over the field of that
order, dimension 1).

Two independent routes are provided: `linear_space_verdict` applies
the closed-form rule, while `elementary_abelian_oracle` builds the
cyclic group of order q - 1 and checks element orders directly,
deliberately avoiding the "q - 1 is prime" shortcut so the scan can
confront the two.  Primality of Mersenne candidates is likewise
checked twice, by trial division and by the Lucas-Lehmer sequence.

`prime_power_scan` takes the rows of the primes from a store kept
for the life of the process, ascending by q: a scan extends it only
past the largest q any scan has reached, and otherwise takes a prefix.
Only the few proper powers p**n (n >= 2, so p <= sqrt(q_max)) are built
per scan and merged in by q.  Rows are built without the constructor's
primality check, since p comes off the sieve and the merge already
knows q; they are frozen, so scans share them as safely as both routes
share the "no" and the trivial answer.  A row is a slotted object of
three fields: measured with tracemalloc, store and sieve hold 8.6 MiB
after a scan to 2**20 and 31.3 MiB after one to the desk limit.  Both
routes still run on every row of every scan.  The oracle splits the
power of 2 off an even q - 1 by its lowest set bit and reduces every
element of the cyclic group in one C-level `map`, so a row costs
little beyond its two verdicts.  Trial division tries no divisor above
the desk-scale limit and raises OutOfRange instead.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, repeat
from math import isqrt
from operator import attrgetter, mod
from threading import Lock

from ._value import Value
from .errors import OutOfRange, _brief

# primality is desk-scale by design; the scan bound keeps runs instant
_DESK_LIMIT = 1 << 22

_sieve = bytearray(b"\x00\x00\x01\x01")  # primality table, index <= len-1
# rows p**1 of every prime up to the last one's q, ascending; only
# prime_power_scan grows it
_prime_rows: list[PrimePower] = []
# one grower at a time, so neither table is replaced by a smaller one;
# readers take whichever is bound, as each is published by one rebinding
_growing = Lock()
_q = attrgetter("q")


def _grow_sieve(limit: int) -> None:
    global _sieve
    if limit < len(_sieve):
        return
    with _growing:
        if limit < len(_sieve):
            return
        # never past the desk limit, so any index below len(_sieve) is
        # in range
        size = min(max(limit + 1, 2 * len(_sieve), 1 << 11),
                   _DESK_LIMIT + 1)
        table = bytearray(b"\x01") * size
        table[0:2] = b"\x00\x00"
        for i in range(2, isqrt(size - 1) + 1):
            if table[i]:
                table[i * i::i] = bytearray(len(range(i * i, size, i)))
        _sieve = table


def is_prime(n: int) -> bool:
    """Deterministic primality at desk scale (sieve-backed trial table)."""
    if 1 < n < len(_sieve):
        return _sieve[n] == 1
    if n < 2:
        return False
    if n > _DESK_LIMIT:
        raise OutOfRange(
            f"primality of {_brief(n)} is beyond the desk-scale limit")
    _grow_sieve(n)
    return bool(_sieve[n])


def trial_division_prime(n: int) -> bool:
    """Literal trial division by 2 and every odd integer up to sqrt(n);
    OutOfRange when sqrt(n) passes the desk-scale limit before a factor
    turns up."""
    return n >= 2 and _smallest_prime_factor(n) == n


def lucas_lehmer(r: int) -> bool:
    """Lucas-Lehmer test of 2**r - 1 for odd prime exponent r >= 3."""
    if r < 3:
        raise ValueError("the sequence test needs exponent >= 3")
    m = (1 << r) - 1
    s = 4
    for _ in range(r - 2):
        s = (s * s - 2) % m
    return s == 0


def mersenne_exponent(p_prime: int) -> int | None:
    """The r with p_prime == 2**r - 1 prime, or None.

    Primality is established by trial division and, for r >= 3,
    cross-checked against the Lucas-Lehmer test; the two methods must
    agree.
    """
    if p_prime < 1 or (p_prime + 1) & p_prime:
        return None  # not of the all-ones form
    r = p_prime.bit_length()
    divides = trial_division_prime(p_prime)
    if r >= 3 and lucas_lehmer(r) != divides:
        raise AssertionError(
            f"trial division and Lucas-Lehmer disagree on 2**{r} - 1")
    return r if divides else None


class PrimePower(Value):
    """q = p**n with p verified prime."""

    # q is computed once, since both verdict routes read it, and is left
    # out of the arguments, the repr and equality; a prime keeps p's int
    # object, which spares a scan one int per row
    __slots__ = ("p", "n", "q")
    __match_args__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValueError(f"exponent must be >= 1, got {_brief(n)}")
        if not is_prime(p):
            raise ValueError(f"{_brief(p)} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", p ** n if n > 1 else p)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p**n, rejecting anything else."""
        if q < 2:
            raise ValueError(f"{_brief(q)} is not a prime power")
        p = _smallest_prime_factor(q)
        n = 0
        m = q
        while m % p == 0:
            m //= p
            n += 1
        if m != 1:
            raise ValueError(f"{_brief(q)} is not a prime power")
        return cls(p, n)


def _row(p: int, n: int, q: int) -> PrimePower:
    """PrimePower(p, n) for a p off the sieve and q == p**n, built
    without the constructor's checks."""
    r = object.__new__(PrimePower)
    object.__setattr__(r, "p", p)
    object.__setattr__(r, "n", n)
    object.__setattr__(r, "q", q)
    return r


class FqVerdict(Value):
    """Answer for one q: is the multiplicative group a linear space.

    When yes, scalar_order is the (prime) order of the scalar field
    and dim the dimension; scalar_order None with dim 0 marks the
    trivial group, a zero-dimensional space over any field at all.
    """

    __slots__ = __match_args__ = ("is_space", "scalar_order", "dim")

    def __init__(self, is_space: bool, scalar_order: int | None = None,
                 dim: int | None = None):
        object.__setattr__(self, "is_space", is_space)
        object.__setattr__(self, "scalar_order", scalar_order)
        object.__setattr__(self, "dim", dim)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.is_space, self.scalar_order, self.dim)
                == (other.is_space, other.scalar_order, other.dim))

    def __hash__(self):
        return hash((self.is_space, self.scalar_order, self.dim))


# frozen, so every route returns these two answers as shared values
_NO = FqVerdict(False)
_TRIVIAL = FqVerdict(True, None, 0)


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    root = isqrt(n)
    for d in range(3, min(root, _DESK_LIMIT) + 1, 2):
        if n % d == 0:
            return d
    if root > _DESK_LIMIT:
        raise OutOfRange(
            f"trial division of a {n.bit_length()}-bit number found no "
            f"factor up to the desk-scale limit {_DESK_LIMIT}")
    return n


def linear_space_verdict(pp: PrimePower) -> FqVerdict:
    """Closed-form rule: trivial group, order 2, or Mersenne order."""
    q = pp.q
    if q == 2:
        return _TRIVIAL
    if q == 3:
        return FqVerdict(True, 2, 1)
    if pp.p == 2 and mersenne_exponent(q - 1) is not None:
        return FqVerdict(True, q - 1, 1)
    return _NO


def elementary_abelian_oracle(pp: PrimePower) -> FqVerdict:
    """Brute-force witness: check Z/(q-1) against (Z/p')**m directly.

    Finds the candidate prime p' dividing q - 1, requires q - 1 to be
    a power of it, and then verifies every element's order divides p'
    by multiplication in the cyclic group.  No shortcut through
    "q - 1 is prime" is taken.  A q above the desk-scale limit that
    also bounds prime_power_scan raises OutOfRange before any work.
    """
    q = pp.q
    if q > _DESK_LIMIT:
        raise OutOfRange(
            f"q = {_brief(q)} exceeds the oracle bound {_DESK_LIMIT}")
    order = q - 1
    if order == 1:
        return _TRIVIAL
    if order & 1:
        p2 = _smallest_prime_factor(order)
        m, rest = 0, order
        while rest % p2 == 0:
            rest //= p2
            m += 1
    else:
        # 2**m divides the order exactly, m from its lowest set bit
        p2, m = 2, (order & -order).bit_length() - 1
        rest = order >> m
    if rest != 1:
        return _NO  # two distinct primes divide the order
    # a * p' mod (q - 1) for every element a, in C
    if any(map(mod, range(0, order * p2, p2), repeat(order))):
        return _NO  # element of order not dividing p'
    return FqVerdict(True, p2, m)


def prime_power_scan(q_max: int, *, include_oracle: bool = True
                     ) -> list[tuple[PrimePower, FqVerdict, FqVerdict | None]]:
    """All prime powers q <= q_max with verdicts, ordered by q."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > _DESK_LIMIT:
        # checked before the sieve grows: it takes a byte per integer
        raise OutOfRange(
            f"q_max = {_brief(q_max)} exceeds the desk-scale limit "
            f"{_DESK_LIMIT}")
    primes = _prime_rows_to(q_max)
    # the proper powers p**n (n >= 2) have p <= isqrt(q_max) and are
    # few; each goes in after the primes below it
    powers = []
    for p in map(_q, primes[:bisect_right(primes, isqrt(q_max), key=_q)]):
        q, n = p * p, 2
        while q <= q_max:
            powers.append(_row(p, n, q))
            q *= p
            n += 1
    powers.sort(key=_q)
    rows, start = [], 0
    for pp in powers:
        end = bisect_right(primes, pp.q, start, key=_q)
        rows += primes[start:end]
        rows.append(pp)
        start = end
    rows += primes[start:bisect_right(primes, q_max, start, key=_q)]
    if include_oracle:
        return [(pp, linear_space_verdict(pp), elementary_abelian_oracle(pp))
                for pp in rows]
    return [(pp, linear_space_verdict(pp), None) for pp in rows]


def _prime_rows_to(q_max: int) -> list[PrimePower]:
    """The store of prime rows, grown first to every prime <= q_max if
    it stops short."""
    global _prime_rows
    rows = _prime_rows
    if not rows or rows[-1].q < q_max:
        _grow_sieve(q_max)
        with _growing:
            rows = _prime_rows
            top = rows[-1].q + 1 if rows else 2
            if top <= q_max:
                new = compress(range(top, q_max + 1),
                               memoryview(_sieve)[top:q_max + 1])
                rows = [*rows, *(_row(p, 1, p) for p in new)]
                _prime_rows = rows
    return rows
