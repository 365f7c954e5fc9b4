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

`prime_power_scan` takes its rows from one store of every prime power,
the module's one table, kept for the life of the process and ascending
by q: a scan takes a prefix of it, and extends it first only past the
largest q any scan has reached.  A growth sieves to q_max in a table of
its own, dropped when the growth ends, and reads off it the new primes
(2 by hand, the odd candidates through a strided memoryview) and the
new proper powers p**n from the primes p <= sqrt(q_max).  It allocates
their rows in one `map` of `object.__new__`, fills each slot through
its member descriptor in another, and orders the new rows by q once; a
growth publishes its q_max with the rows, even if none is new, so no
scan up to it sieves again.  Rows are
built without the constructor's primality check, since p comes off the
sieve; they are frozen, so scans share them as safely as both routes
share the "no" and the trivial answer.  Both routes still run on every
row of every scan, and each answers the common "no" in one test: the
rule on an odd p, the oracle on an even q - 1 other than its own lowest
set bit, which an odd prime divides.  Only a q - 1 that is a prime
power is walked, every element of the group reduced in one C-level `map`.
The constructor refuses a p above the desk-scale limit and checks any
other by trial division, at most 1024 odd divisors.  Trial division
tries no divisor above that limit and raises OutOfRange instead.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import compress, repeat
from math import isqrt
from operator import attrgetter, mod
from threading import Lock

from ._value import Value
from .errors import OutOfRange, _brief

# primality is desk-scale by design; the scan bound keeps runs instant
_DESK_LIMIT = 1 << 22

# the q_max it was grown to, and the row of every prime power up to it,
# ascending; only prime_power_scan grows it
_store: tuple[int, list[PrimePower]] = (1, [])
# one grower at a time, so the store is never replaced by a smaller one;
# readers take whichever is bound, as it is published by one rebinding
_growing = Lock()
_q = attrgetter("q")


def trial_division_prime(n: int) -> bool:
    """Literal trial division by 2 and every odd integer up to sqrt(n);
    OutOfRange when sqrt(n) passes the desk-scale limit before a factor
    turns up."""
    return n >= 2 and _smallest_prime_factor(n) == n


def lucas_lehmer(r: int) -> bool:
    """Lucas-Lehmer test of 2**r - 1 for any r >= 3: a zero residue
    proves 2**r - 1 prime, so a composite r reads False."""
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
    agree.  Past 2**44 (r > 44), beyond trial division, OutOfRange.
    """
    if p_prime < 1 or (p_prime + 1) & p_prime:
        return None  # not of the all-ones form
    r = p_prime.bit_length()
    if p_prime > _DESK_LIMIT ** 2:
        raise OutOfRange(f"2**{r} - 1 is beyond trial division "
                         f"up to the desk-scale limit {_DESK_LIMIT}")
    divides = trial_division_prime(p_prime)
    if r >= 3 and lucas_lehmer(r) != divides:
        raise AssertionError(
            f"trial division and Lucas-Lehmer disagree on 2**{r} - 1")
    return r if divides else None


class PrimePower(Value):
    """q = p**n with p verified prime."""

    # q is computed once, since both verdict routes read it, and is left
    # out of the arguments, the repr and equality
    __slots__ = ("p", "n", "q")
    __match_args__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValueError(f"exponent must be >= 1, got {_brief(n)}")
        if p > _DESK_LIMIT:
            raise OutOfRange(
                f"primality of {_brief(p)} is beyond the desk-scale limit")
        if not trial_division_prime(p):
            raise ValueError(f"{_brief(p)} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", p ** n)

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


# frozen, so both routes share them; most rows get "no" after one test
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
    if pp.p != 2:
        return FqVerdict(True, 2, 1) if q == 3 else _NO
    if q == 2:
        return _TRIVIAL
    if mersenne_exponent(q - 1) is not None:
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
        if rest != 1:
            return _NO  # two distinct odd primes divide the order
    else:
        low = order & -order  # the largest power of 2 dividing the order
        if low != order:
            return _NO  # an odd prime divides the order too
        p2, m = 2, low.bit_length() - 1
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
        # checked before a growth sieves: it takes a byte per integer
        raise OutOfRange(
            f"q_max = {_brief(q_max)} exceeds the desk-scale limit "
            f"{_DESK_LIMIT}")
    rows = _rows_to(q_max)
    rows = rows[:bisect_right(rows, q_max, key=_q)]
    if include_oracle:
        return [(pp, linear_space_verdict(pp), elementary_abelian_oracle(pp))
                for pp in rows]
    return [(pp, linear_space_verdict(pp), None) for pp in rows]


def _rows_to(q_max: int) -> list[PrimePower]:
    """The store of rows, grown first to every prime power <= q_max if
    it stops short."""
    global _store
    reach, rows = _store
    if reach >= q_max:
        return rows
    with _growing:
        reach, rows = _store
        if reach >= q_max:
            return rows
        top = reach + 1
        # this growth's own sieve, freed before the rows are built
        sieve = bytearray(b"\x01") * (q_max + 1)
        sieve[:2] = b"\x00\x00"
        root = isqrt(q_max)
        for i in range(2, root + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, q_max + 1, i)))
        # the primes: 2 by hand, then the odd candidates only; a prime's
        # row keeps p and q as one int object
        ps = [2] if top == 2 else []
        odd = top | 1
        ps += compress(range(odd, q_max + 1, 2), memoryview(sieve)[odd::2])
        qs = ps.copy()
        ns = [1] * len(ps)
        # the proper powers p**n (n >= 2), so p <= isqrt(q_max)
        for p in compress(range(root + 1), sieve):
            q, n = p * p, 2
            while q <= q_max:
                if q >= top:
                    ps.append(p)
                    ns.append(n)
                    qs.append(q)
                q *= p
                n += 1
        del sieve
        if qs:
            # allocate every row, then fill each slot through its member
            # descriptor, all in C
            made = list(map(object.__new__, repeat(PrimePower, len(qs))))
            deque(map(PrimePower.p.__set__, made, ps), 0)
            deque(map(PrimePower.n.__set__, made, ns), 0)
            deque(map(PrimePower.q.__set__, made, qs), 0)
            made.sort(key=_q)
            rows = rows + made
        _store = q_max, rows
    return rows
