"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's bit-packed kernel:
series are coefficient lists, Puiseux terms are dicts keyed by exact
fractions, and products are schoolbook convolutions.  The inverse
fixes one coefficient at a time straight from the defining equation,
and odd roots and powers come from 2-adic coordinates, rebuilt with
shifts and XORs.  Like the package, coordinate_power divides by k as
k**-1 modulo a power of 2; lifted_root does not: it fixes one
coefficient of an odd root per step from convolutions alone, as the
schoolbook inverse does for the inverse.
The reference spread and compress move one coefficient at a time,
where the package re-grids a whole body at once with shift-and-mask
rounds.  Reference unit equality compares the two sets of exponents
below the smaller precision as Fractions, where the package reduces
each body to its coarsest grid with support_gcd and compress.  The
reference text codec parses, factors and formats with exact Fractions
and a set of exponents, term by term, where the package works on
integer grid indices.  The reference prime-power scan factors every
integer by trial division and builds each row's verdicts afresh, where
the package sieves once per growth of its row store and shares the
verdict values.
Both census routes of the package read the group Z/(q - 1), so they
rest on F_q^x being cyclic (Lidl and Niederreiter, Finite Fields,
Thm 2.8); the field oracle does not: it builds F_q, multiplies in it
and reads the group's exponent off its elements.

The scalar action has two references.  One is the composition
u**(p/q) = (u**p)**(1/q), a power by repeated products (of the
schoolbook inverse for p < 0), then the coordinate odd root and one
grid doubling per factor of 2 of q.  The other reads off the 2-adic
coordinates of a unit: over GF(2) every 1-unit of GF(2)[[t]] is
uniquely a product of (1 + t**n)**a_n over odd n, with 2-adic integers
a_n, so the group law is addition of coordinates and u**(p/q) divides
p times the coordinates by q.  The coordinates come from shifts and
XORs alone, and so does the unit rebuilt from them.
"""

import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, lcm

from f2puiseux import (DenominatorOverflow, ElementSyntaxError,
                       ExponentNotIncreasing, F2Series, FqVerdict,
                       Indistinguishable, L0Element, NonpositivePrecision,
                       NonUnitLeadingTerm, PrimePower, PuiseuxUnit)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bits_to_coeffs(bits: int, prec: int) -> list[int]:
    """Coefficients 0..prec-1, read off the binary digits in one pass."""
    digits = format(bits, "b").encode()[::-1][:prec].translate(_BIT_VALUES)
    return list(digits) + [0] * (prec - len(digits))


def coeffs_to_bits(coeffs: list[int]) -> int:
    """The int whose bit j is coefficient j, each 0 or 1."""
    return int(bytes(coeffs[::-1]).translate(_BIT_DIGITS) or b"0", 2)


def _bitmap(indices) -> int:
    indices = list(indices)
    out = bytearray(max(indices, default=0) // 8 + 1)
    for i in indices:
        out[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(out, "little")


def reference_spread(x: int, m: int) -> int:
    """Bit j of x to bit m*j, one coefficient at a time."""
    return _bitmap(m * j for j, c in enumerate(bits_to_coeffs(
        x, x.bit_length())) if c)


def reference_compress(x: int, m: int) -> int:
    """Bit m*j of x to bit j, one coefficient at a time; bits off the
    stride are dropped."""
    return _bitmap(j for j, c in enumerate(bits_to_coeffs(
        x, x.bit_length())[::m]) if c)


def convolve_mod2(a, b, prec=None) -> list[int]:
    """Schoolbook polynomial product over GF(2), optionally truncated.

    Coefficient k is the parity of the pairs of nonzero coefficients
    a_i, b_j with i + j = k; only those pairs are visited.
    """
    if prec is None:
        prec = len(a) + len(b) - 1 if a and b else 1
    out = [0] * prec
    ones = [j for j, bj in enumerate(b[:prec]) if bj]
    for i, ai in enumerate(a[:prec]):
        if ai:
            for j in ones[:bisect_left(ones, prec - i)]:
                out[i + j] ^= 1
    return out


def series_product(a: F2Series, b: F2Series) -> F2Series:
    prec = min(a.prec, b.prec)
    coeffs = convolve_mod2(bits_to_coeffs(a.coeffs, prec),
                           bits_to_coeffs(b.coeffs, prec), prec)
    return F2Series(coeffs_to_bits(coeffs), prec)


def schoolbook_inverse(a: F2Series) -> F2Series:
    """Inverse of a unit by fixing one coefficient per step.

    Coefficient m >= 1 of a*y is y[m] + sum(a[i]*y[m-i], 1 <= i <= m),
    which must vanish, so y[m] is that sum over the coefficients
    already fixed.
    """
    ca = bits_to_coeffs(a.coeffs, a.prec)
    assert ca[0] == 1
    support = [i for i in range(1, a.prec) if ca[i]]
    y = [1]
    for m in range(1, a.prec):
        y.append(sum(y[m - i] for i in support if i <= m) & 1)
    return F2Series(coeffs_to_bits(y), a.prec)


def reference_scalar_mul_unit(r, u: PuiseuxUnit, *,
                              den_cap=1 << 16) -> PuiseuxUnit:
    """(u**p)**(1/q) as the composition of the coefficient-at-a-time
    references, with the cap checked on the grid of each square root."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    base = schoolbook_inverse(u.body) if p < 0 else u.body
    power = F2Series.one(base.prec)
    for _ in range(abs(p)):
        power = series_product(power, base)
    w = PuiseuxUnit(u.den, power)
    s = (q & -q).bit_length() - 1
    w = PuiseuxUnit(w.den, F2Series(
        coordinate_power(w.body.coeffs, 1, q >> s, w.body.prec), w.body.prec))
    for _ in range(s):
        w = PuiseuxUnit(2 * w.den, w.body)
        if den_cap is not None and w.den > den_cap:
            raise DenominatorOverflow(
                f"grid denominator {w.den} exceeds the cap {den_cap}")
    return w


def unit_coordinates(bits: int, prec: int) -> dict[int, int]:
    """The 2-adic coordinates {n: a_n} of the unit bits + O(t**prec).

    a_n is known modulo 2**e_n, where e_n = coordinate_bits(n, prec).
    The lowest bit m = n * 2**v of u - 1 is bit v of a_n, since
    (1 + t**n)**(2**v) = 1 + t**m; u is then divided by 1 + t**m, a
    prefix XOR at stride m, until it is 1.
    """
    assert bits & 1
    mask = (1 << prec) - 1
    u = bits & mask
    coords = {}
    while u != 1:
        m = ((u ^ 1) & -(u ^ 1)).bit_length() - 1
        v = (m & -m).bit_length() - 1
        coords[m >> v] = coords.get(m >> v, 0) | 1 << v
        shift = m
        while shift < prec:
            u = (u ^ u << shift) & mask
            shift <<= 1
    return coords


def coordinate_bits(n: int, prec: int) -> int:
    """e_n: the number of v >= 0 with n * 2**v < prec, for odd n."""
    return ((prec - 1) // n).bit_length()


def coordinate_power(bits: int, p: int, k: int, prec: int) -> int:
    """(bits + O(t**prec))**(p/k) for a unit and odd k, from coordinates.

    Each a_n becomes p * a_n / k modulo 2**e_n, where k is invertible,
    and the unit is rebuilt as the product of 1 + t**(n * 2**v) over the
    set bits v of the new a_n, each factor one shift and one XOR.
    """
    mask = (1 << prec) - 1
    u = 1
    for n, a in unit_coordinates(bits, prec).items():
        modulus = 1 << coordinate_bits(n, prec)
        c = p * a * pow(k, -1, modulus) % modulus
        while c:
            m = n * (c & -c)
            u = (u ^ u << m) & mask
            c &= c - 1
    return u


def lifted_root(bits: int, k: int, prec: int) -> int:
    """(bits + O(t**prec))**(1/k) for a unit and odd k, by linear lifting.

    If r' is the root modulo t**j, then r = r' + c * t**j + ... and
    r**k = r'**k + k * c * t**j + ..., since r' = 1 + O(t); k is odd,
    so c is coefficient j of a - r'**k.  r'**k is square-and-multiply
    by convolve_mod2, truncated at t**(j + 1).
    """
    a = bits_to_coeffs(bits, prec)
    assert a[0] == 1 and k & 1
    r = [1]
    for j in range(1, prec):
        power, base, e = [1], r, k
        while e:
            if e & 1:
                power = convolve_mod2(power, base, j + 1)
            base, e = convolve_mod2(base, base, j + 1), e >> 1
        r.append(a[j] ^ power[j])
    return coeffs_to_bits(r)


def coordinates_match(got: dict, want: dict, prec: int) -> bool:
    """got == want modulo 2**e_n for every odd n < prec."""
    return all((got.get(n, 0) - want.get(n, 0))
               % (1 << coordinate_bits(n, prec)) == 0
               for n in range(1, prec, 2))


def unit_terms(u: PuiseuxUnit) -> dict[Fraction, int]:
    """Exponent -> coefficient view of a unit, below its precision."""
    return {Fraction(j, u.den): 1
            for j in range(u.body.prec) if (u.body.coeffs >> j) & 1}


def reference_units_agree(u: PuiseuxUnit, v: PuiseuxUnit) -> bool:
    """Unit equality as the sets of exponents below the smaller
    precision, read coefficient by coefficient as Fractions, whatever
    grid each unit is stored on."""
    aprec = min(Fraction(u.body.prec, u.den), Fraction(v.body.prec, v.den))

    def support(w):
        below = bits_to_coeffs(w.body.coeffs, w.body.prec)[
            :ceil(aprec * w.den)]
        return [Fraction(j, w.den) for j, c in enumerate(below) if c]
    return support(u) == support(v)  # both ascend


def term_product(tu: dict, tv: dict, aprec: Fraction) -> dict[Fraction, int]:
    """Convolve two exponent dicts over GF(2), truncated below aprec.

    The exponents are added as numerators over their lcm denominator,
    and a sum that occurs an odd number of times is a term.
    """
    den = lcm(aprec.denominator, *(e.denominator for e in (*tu, *tv)))
    limit = int(aprec * den)
    right = sorted(int(e * den) for e in tv)
    counts = Counter()
    for e in tu:
        i = int(e * den)
        counts.update(map(i.__add__, right[:bisect_left(right, limit - i)]))
    return {Fraction(i, den): 1 for i, c in counts.items() if c & 1}


# ---------------------------------------------------------------------------
# reference text codec

def reference_decompose_raw(exponents, aprec, *, den_cap=1 << 16):
    """decompose_raw on Fractions: a set of exponents, min and lcm."""
    aprec = Fraction(aprec)
    support = set()
    for e in exponents:
        e = Fraction(e)
        if e >= aprec:
            raise ValueError(
                f"term x^({e}) lies at or beyond the precision O(x^({aprec}))")
        support.symmetric_difference_update({e})
    if not support:
        raise Indistinguishable(
            "all coefficients within precision are zero")
    val = min(support)
    rel = [e - val for e in support]
    rel_prec = aprec - val
    d = 1
    for e in rel:
        d = lcm(d, e.denominator)
    d = lcm(d, rel_prec.denominator)
    if den_cap is not None and d > den_cap:
        raise DenominatorOverflow(
            f"grid denominator {d} exceeds the cap {den_cap}")
    bits = 0
    for e in rel:
        bits |= 1 << (e.numerator * (d // e.denominator))
    prec = rel_prec.numerator * (d // rel_prec.denominator)
    return L0Element(val, PuiseuxUnit(d, F2Series(bits, prec)))


_EXPONENT = r"(?:\((-?\d+)(?:/(\d+))?\)|(-?\d+))"
_X_TERM = re.compile(rf"x\^{_EXPONENT}\Z")
_O_TERM = re.compile(rf"O\(x\^{_EXPONENT}\)\Z")


def _exponent_from_match(m, position):
    num = m.group(1) if m.group(1) is not None else m.group(3)
    den = m.group(2)
    if den is not None and int(den) == 0:
        raise ElementSyntaxError("zero denominator in exponent", position)
    return Fraction(int(num), int(den) if den is not None else 1)


def reference_parse_element(s, *, den_cap=1 << 16):
    """parse_element with a Fraction per exponent and per comparison."""
    chunks = []
    start = 0
    while True:
        cut = s.find("+", start)
        chunks.append((start, s[start:] if cut < 0 else s[start:cut]))
        if cut < 0:
            break
        start = cut + 1
    parts = []
    for off, chunk in chunks:
        stripped = chunk.strip()
        if not stripped:
            raise ElementSyntaxError("empty term", off)
        parts.append((off + chunk.index(stripped[0]), stripped))
    if len(parts) < 2:
        raise ElementSyntaxError(
            "element needs at least one term and a trailing O(x^(P))",
            parts[-1][0] if parts else 0)
    o_pos, o_text = parts[-1]
    m = _O_TERM.match(o_text)
    if m is None:
        raise ElementSyntaxError(
            f"expected precision marker O(x^(P)), got {o_text!r}", o_pos)
    aprec = _exponent_from_match(m, o_pos)

    val = None
    body = parts[:-1]
    first_pos, first_text = body[0]
    if "*" in first_text:
        head, _, lead = first_text.partition("*")
        head = head.strip()
        mh = _X_TERM.match(head)
        if mh is None:
            raise ElementSyntaxError(
                f"expected valuation factor 'x^(a/b)', got {head!r}", first_pos)
        val = _exponent_from_match(mh, first_pos)
        lead = lead.strip()
        if lead != "1":
            raise NonUnitLeadingTerm(
                f"unit part must start with 1, got {lead!r}",
                first_pos + first_text.index("*") + 1)
        body[0] = (first_pos, "1")

    exponents = []
    last = None
    for pos, text in body:
        if text == "1":
            e = Fraction(0)
        else:
            m = _X_TERM.match(text)
            if m is None:
                raise ElementSyntaxError(
                    f"expected '1' or 'x^(a/b)', got {text!r}", pos)
            e = _exponent_from_match(m, pos)
        if last is not None and e <= last:
            raise ExponentNotIncreasing(
                f"exponent {e} does not increase past {last}", pos)
        if e >= aprec:
            raise NonpositivePrecision(
                f"term x^({e}) is not representable below the precision "
                f"O(x^({aprec}))", pos)
        exponents.append(e)
        last = e

    element = reference_decompose_raw(exponents, aprec, den_cap=den_cap)
    if val is not None:
        element = L0Element(val + element.val, element.unit)
    return element


def reference_format_unit(u):
    """format_unit from the Fraction of every set bit, read off one scan
    of the body's binary digits, lowest first."""
    terms = ["1"]
    for j, digit in enumerate(reversed(bin(u.body.coeffs ^ 1)[2:])):
        if digit == "1":
            terms.append(f"x^({Fraction(j, u.den)})")
    return " + ".join(terms) + f" + O(x^({u.aprec}))"


# ---------------------------------------------------------------------------
# reference finite-field scan

def _trial_factor(n: int) -> tuple[int, int] | None:
    """(p, e) with n == p**e for a prime p, by trial division, or None."""
    p = 2
    while p * p <= n and n % p:
        p += 1
    if p * p > n:
        return n, 1
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def reference_prime_power_scan(q_max: int, *, include_oracle: bool = True):
    """prime_power_scan from every integer 2..q_max in turn.

    Each q is factored by trial division.  The verdict is the closed-form
    rule with q - 1 tested by trial division, and the oracle column reads
    the group's exponent: Z/(q-1) has exponent q - 1, so it is
    elementary abelian exactly when q - 1 is 1 or prime.  Every row gets
    new FqVerdict values.
    """
    rows = []
    for q in range(2, q_max + 1):
        factors = _trial_factor(q)
        if factors is None:
            continue
        p, n = factors
        order = q - 1
        order_prime = order > 1 and _trial_factor(order) == (order, 1)
        if q == 2:
            verdict = FqVerdict(True, None, 0)
        elif q == 3:
            verdict = FqVerdict(True, 2, 1)
        elif p == 2 and order_prime:
            verdict = FqVerdict(True, order, 1)
        else:
            verdict = FqVerdict(False)
        oracle = None
        if include_oracle:
            if order == 1:
                oracle = FqVerdict(True, None, 0)
            elif order_prime:
                oracle = FqVerdict(True, order, 1)
            else:
                oracle = FqVerdict(False)
        rows.append((PrimePower(p, n), verdict, oracle))
    return rows


# ---------------------------------------------------------------------------
# field-level census oracle

def _monic(p: int, d: int):
    """Every monic polynomial of degree d over F_p as its coefficient
    list, lowest first, in the order of their values at x = p."""
    return ([*reversed(high), 1] for high in product(range(p), repeat=d))


def _remainder(a: list, g: list, p: int) -> list:
    """a mod the monic g over F_p, as len(g) - 1 coefficients."""
    a, d = [*a, *[0] * (len(g) - 1 - len(a))], len(g) - 1
    for i in range(len(a) - 1, d - 1, -1):
        if c := a[i] % p:
            for j, gj in enumerate(g):
                a[i - d + j] -= c * gj
    return [c % p for c in a[:d]]


def first_irreducible(p: int, n: int) -> list:
    """The first monic irreducible polynomial of degree n over F_p, by
    trial division by every monic polynomial of degree 1 to n / 2."""
    return next(f for f in _monic(p, n)
                if all(any(_remainder(f, g, p))
                       for d in range(1, n // 2 + 1) for g in _monic(p, d)))


def field(p: int, n: int):
    """(nonzero elements, one, product) of F_q, q = p**n: integers mod p
    for n = 1, else coefficient lists modulo first_irreducible(p, n)."""
    if n == 1:
        return range(1, p), 1, lambda a, b: a * b % p
    f = first_irreducible(p, n)

    def mul(a, b):
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return _remainder(out, f, p)

    elements = ([*c] for c in product(range(p), repeat=n) if any(c))
    return elements, [1, *[0] * (n - 1)], mul


def packed_field(n: int):
    """(nonzero elements, one, product) of F_{2**n}, each element an int
    below 2**n whose bit i is the coefficient of x**i: one shift and
    XOR per bit of b, reduced by first_irreducible(2, n) as it shifts."""
    f = sum(c << i for i, c in enumerate(first_irreducible(2, n)))

    def mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            a, b = a << 1, b >> 1
            if a >> n:
                a ^= f
        return out

    return range(1, 1 << n), 1, mul


def field_power(x, e: int, one, mul):
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x, e = mul(x, x), e >> 1
    return out


def field_oracle(p: int, n: int) -> FqVerdict:
    """Is F_q^x, q = p**n, a linear space, read off F_q's own product.

    An abelian group is a linear space over F_l exactly when it has
    exponent l.  So, past the trivial group of q = 2, the answer is yes
    exactly when q - 1 is a power of its least prime l and every
    nonzero x has x**l = 1; the dimension is then log_l(q - 1).  No
    step assumes that the group is cyclic.
    """
    q = p ** n
    if q == 2:
        return FqVerdict(True, None, 0)
    ell = next(d for d in range(2, q) if (q - 1) % d == 0)
    elements, one, mul = packed_field(n) if p == 2 else field(p, n)
    if any(field_power(x, ell, one, mul) != one for x in elements):
        return FqVerdict(False)
    dim, rest = 0, q - 1
    while rest % ell == 0:
        dim, rest = dim + 1, rest // ell
    return FqVerdict(True, ell, dim) if rest == 1 else FqVerdict(False)
