"""Laws on every unit of small precision, not on a sample.

At precision P on one grid the residue-1 units form a finite group of
order 2**(P - 1), and each odd k-th power permutes it.  The harnesses
and the CLI examples draw units at high precision, where the identity
and the grid switches are rare; here every unit of precision 1-8 is
checked.  The odd powers are also tabulated with the schoolbook
product of tests/oracles, not with the package.
"""

import pytest

from f2puiseux import F2Series, PuiseuxUnit, unit_pow, unit_root

from oracles import bits_to_coeffs, coeffs_to_bits, convolve_mod2


@pytest.mark.parametrize("den", [1, 2, 3])
def test_root_then_power(den):
    # a 2**s in k costs s halvings of the root's precision, no more
    for prec in range(1, 9):
        for bits in range(1, 1 << prec, 2):
            u = PuiseuxUnit(den, F2Series(bits, prec))
            for k in range(1, 17):
                root = unit_root(u, k)
                assert root.aprec == u.aprec / (k & -k), (u, k)
                assert unit_pow(root, k) == u, (u, k)


def power_table(prec: int, k: int) -> dict[int, int]:
    """v**k for every unit v of precision prec on grid 1, as bits, by
    k schoolbook products."""
    table = {}
    for bits in range(1, 1 << prec, 2):
        v = bits_to_coeffs(bits, prec)
        w = [1] + [0] * (prec - 1)
        for _ in range(k):
            w = convolve_mod2(w, v, prec)
        table[bits] = coeffs_to_bits(w)
    return table


@pytest.mark.parametrize("k", range(1, 16, 2))
def test_odd_power_permutes_and_root_inverts(k):
    for prec in range(1, 7):
        table = power_table(prec, k)
        assert sorted(table.values()) == sorted(table), (prec, k)
        preimage = {w: v for v, w in table.items()}
        for bits, v in preimage.items():
            root = unit_root(PuiseuxUnit(1, F2Series(bits, prec)), k)
            assert (root.den, root.body.coeffs, root.body.prec) == (
                1, v, prec), (bits, prec, k)
