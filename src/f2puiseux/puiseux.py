"""Units of the fractional-exponent series ring over GF(2), and their
rational scalar action.

A PuiseuxUnit is a series with constant coefficient 1 living on the
exponent grid (1/den)*Z: bit j of the body is the coefficient of
x**(j/den).  The union over all den forms a multiplicative group on
which every integer power map is a bijection, which is exactly what
makes u**r well defined for rational r: one series power for the odd
part of q in u**(p/q), and a square root (den doubles) per factor of 2.

An L0Element adds an exact rational valuation: the pair (val, unit)
stands for x**val * unit.  Multiplication adds valuations and
multiplies units, so the element group splits as the direct product of
the rationals and the unit group; decompose/compose move between the
raw-series view and that product view.  Parsed text and decompose_raw's
exponent lists share one planner, _plan: one search, over grid indices
or past the den cap over exact Fractions, names the first bad term; it
splits off the valuation and checks the cap before the unit's minimal
grid is built.

Every unit is stored normalized, on the coarsest grid its body,
precision and den allow, and the constructor checks that with
support_gcd.  The scalar action skips the check for an odd power: if
u**p, p odd, lived on a coarser grid, its unique p-th root u would live
there too, so a normalized u has normalized odd powers.

Every finer grid the package builds is first checked against one
always-on den cap (per call, default 2**16), so that runaway exponent
towers fail loudly instead of exhausting memory.  Equality never
builds a common grid: it reads each unit on its own grid.
Values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from itertools import compress as sift, islice, repeat  # not bitops'
from math import gcd, lcm
from operator import floordiv, ge, mul, sub
from typing import Iterable

from . import series
from ._value import Value
from .bitops import bit_indices, compress, spread, support_gcd, trunc_bits
from .errors import DenominatorOverflow, Indistinguishable, NotAUnit, _brief
from .series import F2Series

DEFAULT_DEN_CAP = 1 << 16


def _check_den(den: int, den_cap: int) -> None:
    if den > den_cap:
        raise DenominatorOverflow(
            f"grid denominator {_brief(den)} exceeds the cap "
            f"{_brief(den_cap)}")


class PuiseuxUnit(Value):
    """Residue-1 unit on the grid (1/den)*Z; always stored normalized."""

    __slots__ = __match_args__ = ("den", "body")

    def __init__(self, den: int, body: F2Series):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "body", body)
        self.__post_init__()

    # the check and normalization stay one method, under the name that
    # perfbench/spans.py traces
    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"den must be >= 1, got {_brief(self.den)}")
        if not self.body.is_unit():
            raise NotAUnit("unit part must have constant coefficient 1")
        # canonical representative: contract the grid by the common divisor
        # of den, the support indices and the precision index, so that
        # re-gridding is exact and rendering round-trips.
        g = support_gcd(self.body.coeffs, gcd(self.den, self.body.prec))
        if g > 1:
            body = F2Series(compress(self.body.coeffs, g), self.body.prec // g)
            object.__setattr__(self, "den", self.den // g)
            object.__setattr__(self, "body", body)

    @classmethod
    def one(cls, prec: int = 1, den: int = 1) -> "PuiseuxUnit":
        return cls(den, F2Series.one(prec))

    @property
    def aprec(self) -> Fraction:
        """The unit is known modulo x**aprec."""
        return Fraction(self.body.prec, self.den)

    def is_identity(self) -> bool:
        """True when the unit equals 1 as far as its precision can see."""
        return self.body.coeffs == 1

    def exponents(self) -> list[Fraction]:
        """Exponents with coefficient 1, ascending (0 is always first)."""
        return [Fraction(j, self.den) for j in bit_indices(self.body.coeffs)]

    def __eq__(self, other):
        if not isinstance(other, PuiseuxUnit):
            return NotImplemented
        return units_agree(self, other)

    __hash__ = None

    def __repr__(self):
        from .textform import format_unit  # textform imports this module
        return f"PuiseuxUnit({format_unit(self)})"


def units_agree(u: PuiseuxUnit, v: PuiseuxUnit) -> bool:
    """Equality at the smaller of the two precisions, each body read on
    its own grid: equal exponent sets have one coarsest grid and the
    same bits on it, so no common grid is built.  Truncation can
    coarsen a body's grid, so each is reduced by its support_gcd."""
    a = trunc_bits(u.body.coeffs, -(-v.body.prec * u.den // v.den))
    b = trunc_bits(v.body.coeffs, -(-u.body.prec * v.den // u.den))
    if u.den == v.den:
        return a == b
    g, h = support_gcd(a, u.den), support_gcd(b, v.den)
    return u.den // g == v.den // h and compress(a, g) == compress(b, h)


def unit_mul(u: PuiseuxUnit, v: PuiseuxUnit, *,
             den_cap: int = DEFAULT_DEN_CAP) -> PuiseuxUnit:
    """Product in the unit group; precision is the minimum of the inputs'."""
    if u.den > v.den:
        u, v = v, u
    # the common grid 1/d, checked against the cap before anything is
    # spread, and the smaller precision index p on it
    d = lcm(u.den, v.den)
    _check_den(d, den_cap)
    m = d // v.den
    p = min(u.body.prec * (d // u.den), v.body.prec * m)
    # u is on the coarser grid: it multiplies there, never spread.  v is
    # truncated on its own grid first, so nothing beyond p is spread
    body = series._mul_spread(spread(trunc_bits(v.body.coeffs, -(-p // m)), m),
                              u.body.coeffs, d // u.den, p)
    return PuiseuxUnit(d, F2Series(body, p))


def unit_inv(u: PuiseuxUnit) -> PuiseuxUnit:
    """Inverse at fixed grid and precision."""
    return _act(u, -1, 1, DEFAULT_DEN_CAP)  # no root: cap unread


def unit_sqrt(u: PuiseuxUnit, *,
              den_cap: int = DEFAULT_DEN_CAP) -> PuiseuxUnit:
    """The square root: same coefficients on a twice-finer grid.

    Always defined; the precision halves.  The cap applies to the grid
    of the normalized result, which may be coarser than 2 * u.den.
    """
    r = PuiseuxUnit(2 * u.den, u.body)
    _check_den(r.den, den_cap)
    return r


def _act(u: PuiseuxUnit, p: int, q: int, den_cap: int) -> PuiseuxUnit:
    # u**(p/q): one series._power for the odd part of q, then a square
    # root per factor of 2, each checked against the cap as it is taken.
    # With 2**t the largest power of 2 dividing p, den and prec, the body
    # of u**p is the spread by 2**t of the body of u**(p / 2**t) below
    # the index prec / 2**t, so that body is read on the grid den / 2**t
    # and never spread.  An odd power (t = 0) of a normalized unit is
    # normalized (see the module docstring), so it skips the check
    den, prec = u.den, u.body.prec
    s = (q & -q).bit_length() - 1
    t = ((p | den | prec) & -(p | den | prec)).bit_length() - 1
    prec >>= t
    body = F2Series(series._power(u.body.coeffs, p >> t, q >> s, prec), prec)
    r = _normalized(den, body) if p & 1 else PuiseuxUnit(den >> t, body)
    for _ in range(s):
        r = unit_sqrt(r, den_cap=den_cap)
    return r


def _normalized(den: int, body: F2Series) -> PuiseuxUnit:
    """The unit (den, body), already normalized, built without the
    constructor's support_gcd."""
    r = object.__new__(PuiseuxUnit)
    object.__setattr__(r, "den", den)
    object.__setattr__(r, "body", body)
    return r


def unit_pow(u: PuiseuxUnit, e: int) -> PuiseuxUnit:
    """u**e for any integer e; e = 0 gives 1 at the same precision."""
    return _act(u, e, 1, DEFAULT_DEN_CAP)  # no root: cap unread


def unit_root(u: PuiseuxUnit, k: int, *,
              den_cap: int = DEFAULT_DEN_CAP) -> PuiseuxUnit:
    """The unique k-th root with residue 1, for k >= 1.

    The odd part of k lifts at full precision; each factor of 2 halves
    the precision, so the result is known modulo x**(aprec / 2**s).
    """
    if k < 1:
        raise ValueError(f"root index must be >= 1, got {_brief(k)}")
    return _act(u, 1, k, den_cap)


def scalar_mul_unit(r: Fraction | int, u: PuiseuxUnit, *,
                    den_cap: int = DEFAULT_DEN_CAP) -> PuiseuxUnit:
    """The scalar action r . u := u**r = (u**num)**(1/den)."""
    r = Fraction(r)
    return _act(u, r.numerator, r.denominator, den_cap)


class L0Element(Value):
    """x**val times a residue-1 unit; the canonical factored form."""

    __slots__ = __match_args__ = ("val", "unit")

    def __init__(self, val: Fraction | int, unit: PuiseuxUnit):
        object.__setattr__(self, "val", Fraction(val))
        object.__setattr__(self, "unit", unit)

    @classmethod
    def one(cls, prec: int = 1) -> "L0Element":
        return cls(Fraction(0), PuiseuxUnit.one(prec))

    def __eq__(self, other):
        if not isinstance(other, L0Element):
            return NotImplemented
        return elements_agree(self, other)

    __hash__ = None

    def __repr__(self):
        return f"L0Element(x^({self.val}) * {self.unit!r})"


def elements_agree(a: L0Element, b: L0Element) -> bool:
    """Exact valuation match plus unit agreement at the common precision."""
    return a.val == b.val and units_agree(a.unit, b.unit)


def compose(val: Fraction | int, unit: PuiseuxUnit) -> L0Element:
    """Pair a rational valuation with a unit; inverse of decompose."""
    return L0Element(val, unit)


def decompose(a: L0Element) -> tuple[Fraction, PuiseuxUnit]:
    """The (valuation, unit) coordinates of an element."""
    return a.val, a.unit


def decompose_raw(exponents: Iterable[Fraction | int],
                  aprec: Fraction | int, *,
                  den_cap: int = DEFAULT_DEN_CAP) -> L0Element:
    """Factor a raw series sum(x**e) + O(x**aprec) as x**val * unit.

    Exponents may be negative and repeat (coefficients are mod 2); the
    least surviving exponent becomes the valuation and is divided out.
    """
    aprec = Fraction(aprec)
    pairs = []
    for e in exponents:
        e = Fraction(e)
        if e >= aprec:
            raise ValueError(
                f"term x^({_brief(e)}) lies at or beyond the precision "
                f"O(x^({_brief(aprec)}))")
        pairs.append((e.numerator, e.denominator))
    odd = [t for t, c in Counter(pairs).items() if c & 1]  # repeats cancel
    if not odd:
        raise Indistinguishable("all coefficients within precision are zero")
    # on denominators up to d, terms lie 1/d**2 apart: floors sort them
    d2 = max(d for _, d in odd) ** 2
    odd.sort(key=lambda t: t[0] * d2 // t[1])
    return _plan(*zip(*odd), aprec.numerator, aprec.denominator, den_cap)


def _plan(nums, dens, pn: int, pd: int,
          den_cap: int) -> L0Element | int:
    """x**val * unit for the terms x**(nums[i]/dens[i]) + O(x**(pn/pd)),
    or, unless the exponents ascend strictly below the precision, the
    index of the first bad term: the first of the rising prefix at or
    past the precision, else the first that does not rise.

    nums and dens are ints or numerals, a denominator None for 1.  One
    search orders the terms by key: within the cap, the index on the grid
    1/big, big the lcm of all denominators; past it, where big stops once
    it passes, the exponent as a Fraction.  Neither admits a zero
    denominator.  The unit's grid, minimal so the constructor's stride
    test is skipped, is the lcm of the reduced denominators of the
    exponents less the lowest, the valuation: big over one gcd, or past
    the cap, checked before any index exists.
    """
    nums, dens = [*nums, pn], [*dens, pd]  # the precision last
    den_of = {d: 1 if d is None else int(d) for d in set(dens)}
    big = 1
    for d in den_of.values():
        big = lcm(big, d)
        if big > den_cap:
            break
    within = big <= den_cap
    # the key of n/d: within the cap n * (big // d), past it Fraction(n, d)
    scale = {d: big // n for d, n in den_of.items()} if within else den_of
    keys = list(map(mul if within else Fraction, map(int, nums),
                    map(scale.__getitem__, dens)))
    # the last of the rising prefix, if it ends
    top = next(sift(keys, map(ge, keys, islice(keys, 1, None))), None)
    if top is not None:
        return bisect_left(keys, keys[-1], 0, keys.index(top) + 1)
    if within:
        prec, low, indices = keys.pop(), keys[0], keys
        g = gcd(big, prec - low, *map(sub, indices, repeat(low)))
        val, den = Fraction(low, big), big // g
    else:
        # each exponent less the lowest, the precision last
        val, rel = keys[0], [e - keys[0] for e in keys]
        den = lcm(*(e.denominator for e in rel))
        _check_den(den, den_cap)
        *indices, prec = [e.numerator * (den // e.denominator) for e in rel]
        low, g = 0, 1
    high = indices[-1]
    digits = bytearray(b"0") * ((high - low) // g + 1)  # high bit first
    deque(map(digits.__setitem__,
              map(floordiv, map(sub, repeat(high), indices), repeat(g)),
              repeat(ord("1"))), 0)
    unit = _normalized(den, F2Series(int(digits, 2), (prec - low) // g))
    return L0Element(val, unit)


def element_mul(a: L0Element, b: L0Element, *,
                den_cap: int = DEFAULT_DEN_CAP) -> L0Element:
    """Multiply: valuations add exactly, units multiply."""
    return L0Element(a.val + b.val,
                     unit_mul(a.unit, b.unit, den_cap=den_cap))


def element_inv(a: L0Element) -> L0Element:
    """Inverse: negate the valuation, invert the unit."""
    return L0Element(-a.val, unit_inv(a.unit))


def element_pow(a: L0Element, e: int) -> L0Element:
    """a**e for any integer e."""
    return L0Element(a.val * e, unit_pow(a.unit, e))


def element_scalar_mul(r: Fraction | int, a: L0Element, *,
                       den_cap: int = DEFAULT_DEN_CAP) -> L0Element:
    """The scalar action on the product group, componentwise."""
    r = Fraction(r)
    return L0Element(r * a.val,
                     scalar_mul_unit(r, a.unit, den_cap=den_cap))


def element_root(a: L0Element, k: int, *,
                 den_cap: int = DEFAULT_DEN_CAP) -> L0Element:
    """The unique k-th root whose unit part has residue 1."""
    unit = unit_root(a.unit, k, den_cap=den_cap)  # checks k before a.val / k
    return L0Element(a.val / k, unit)
