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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import OutOfRange

DEFAULT_SCAN_BOUND = 1 << 20

# primality is desk-scale by design; the scan bound keeps runs instant
_DESK_LIMIT = 1 << 22

_sieve = bytearray(b"\x00\x00\x01\x01")  # primality table, index <= len-1


def _grow_sieve(limit: int) -> None:
    global _sieve
    if limit < len(_sieve):
        return
    size = max(limit + 1, 2 * len(_sieve), 1 << 11)
    table = bytearray(b"\x01") * size
    table[0:2] = b"\x00\x00"
    for i in range(2, isqrt(size - 1) + 1):
        if table[i]:
            table[i * i::i] = bytearray(len(range(i * i, size, i)))
    _sieve = table


def is_prime(n: int) -> bool:
    """Deterministic primality at desk scale (sieve-backed trial table)."""
    if n < 2:
        return False
    if n > _DESK_LIMIT:
        raise OutOfRange(f"primality of {n} is beyond the desk-scale limit")
    _grow_sieve(n)
    return bool(_sieve[n])


def trial_division_prime(n: int) -> bool:
    """Literal trial division by every integer up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


@dataclass(frozen=True)
class PrimePower:
    """q = p**n with p verified prime."""

    p: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"exponent must be >= 1, got {self.n}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p ** self.n

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p**n, rejecting anything else."""
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        p = _smallest_prime_factor(q)
        n = 0
        m = q
        while m % p == 0:
            m //= p
            n += 1
        if m != 1:
            raise ValueError(f"{q} is not a prime power")
        return cls(p, n)


@dataclass(frozen=True)
class FqVerdict:
    """Answer for one q: is the multiplicative group a linear space.

    When yes, scalar_order is the (prime) order of the scalar field
    and dim the dimension; scalar_order None with dim 0 marks the
    trivial group, a zero-dimensional space over any field at all.
    """

    is_space: bool
    scalar_order: int | None = None
    dim: int | None = None


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def linear_space_verdict(pp: PrimePower) -> FqVerdict:
    """Closed-form rule: trivial group, order 2, or Mersenne order."""
    q = pp.q
    if q == 2:
        return FqVerdict(True, None, 0)
    if q == 3:
        return FqVerdict(True, 2, 1)
    if pp.p == 2 and mersenne_exponent(q - 1) is not None:
        return FqVerdict(True, q - 1, 1)
    return FqVerdict(False)


def elementary_abelian_oracle(pp: PrimePower, *,
                              bound: int | None = DEFAULT_SCAN_BOUND
                              ) -> FqVerdict:
    """Brute-force witness: check Z/(q-1) against (Z/p')**m directly.

    Finds the candidate prime p' dividing q - 1, requires q - 1 to be
    a power of it, and then verifies every element's order divides p'
    by multiplication in the cyclic group.  No shortcut through
    "q - 1 is prime" is taken.
    """
    q = pp.q
    if bound is not None and q > bound:
        raise OutOfRange(f"q = {q} exceeds the oracle bound {bound}")
    order = q - 1
    if order == 1:
        return FqVerdict(True, None, 0)
    p2 = _smallest_prime_factor(order)
    m, rest = 0, order
    while rest % p2 == 0:
        rest //= p2
        m += 1
    if rest != 1:
        return FqVerdict(False)  # two distinct primes divide the order
    for a in range(order):
        if (a * p2) % order:
            return FqVerdict(False)  # element of order not dividing p'
    return FqVerdict(True, p2, m)


def prime_power_scan(q_max: int, *, include_oracle: bool = True
                     ) -> list[tuple[PrimePower, FqVerdict, FqVerdict | None]]:
    """All prime powers q <= q_max with verdicts, ordered by q."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > _DESK_LIMIT:
        # checked before the sieve grows: it takes a byte per integer
        raise OutOfRange(
            f"q_max = {q_max} exceeds the desk-scale limit {_DESK_LIMIT}")
    _grow_sieve(q_max)
    rows = []
    for p in range(2, q_max + 1):
        if not _sieve[p]:
            continue
        q, n = p, 1
        while q <= q_max:
            rows.append((q, p, n))
            q *= p
            n += 1
    rows.sort()
    out = []
    for q, p, n in rows:
        pp = PrimePower(p, n)
        verdict = linear_space_verdict(pp)
        oracle = (elementary_abelian_oracle(pp, bound=q_max)
                  if include_oracle else None)
        out.append((pp, verdict, oracle))
    return out
