"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's bit-packed kernel:
series are coefficient lists, Puiseux terms are dicts keyed by exact
fractions, and products are schoolbook convolutions.  The inverse and
the linear-lift root finder fix one coefficient at a time straight from
the defining equation, with no Newton step anywhere.
"""

from fractions import Fraction

from f2puiseux import F2Series, PuiseuxUnit, pow_int


def bits_to_coeffs(bits: int, prec: int) -> list[int]:
    return [(bits >> j) & 1 for j in range(prec)]


def coeffs_to_bits(coeffs) -> int:
    out = 0
    for j, c in enumerate(coeffs):
        if c & 1:
            out |= 1 << j
    return out


def convolve_mod2(a, b, prec=None) -> list[int]:
    """Schoolbook polynomial product over GF(2), optionally truncated."""
    if prec is None:
        prec = len(a) + len(b) - 1 if a and b else 1
    out = [0] * prec
    for i, ai in enumerate(a[:prec]):
        if ai:
            for j, bj in enumerate(b[:prec - i]):
                out[i + j] ^= bj
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


def linear_lift_root(a: F2Series, k: int) -> F2Series:
    """Unique k-th root (odd k) by fixing one coefficient per step.

    With b correct below t**m and residue 1, adding t**m changes b**k
    below t**(m+1) by exactly t**m times the unit b**(k-1), whose
    constant term is 1; so bit m of the root is the mismatch between
    a and b**k at t**m.
    """
    assert k % 2 == 1 and a.coeffs & 1
    bits = 1
    for m in range(1, a.prec):
        power = pow_int(F2Series(bits, m + 1), k)
        if ((power.coeffs ^ a.coeffs) >> m) & 1:
            bits |= 1 << m
    return F2Series(bits, a.prec)


def unit_terms(u: PuiseuxUnit) -> dict[Fraction, int]:
    """Exponent -> coefficient view of a unit, below its precision."""
    return {Fraction(j, u.den): 1
            for j in range(u.body.prec) if (u.body.coeffs >> j) & 1}


def term_product(tu: dict, tv: dict, aprec: Fraction) -> dict[Fraction, int]:
    """Convolve two exponent dicts over GF(2), truncated below aprec."""
    out: dict[Fraction, int] = {}
    for e1 in tu:
        for e2 in tv:
            e = e1 + e2
            if e < aprec:
                out[e] = out.get(e, 0) ^ 1
    return {e: c for e, c in out.items() if c}
