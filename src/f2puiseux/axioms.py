"""Seeded randomized checks of the group structure.

Three harnesses sample elements and scalars, evaluate the laws that
make the element group a rational vector space (plus torsion-freeness
and bijectivity of the power maps), and collect the outcomes into a
report.  Every comparison is exact on canonical truncated
representations at the contracted common precision; there is no
numeric tolerance anywhere.

Reports are deterministic functions of the seed and parameters: each
sample draws its randomness from a generator keyed on (seed, harness,
sample index), so the result is independent of evaluation order.
Samples that hit the grid-denominator cap are counted as skipped, not
failed; the cap is a resource bound, not a mathematical violation.

The harnesses call the group operations through the `puiseux` module
object, so a test can swap a deliberately broken operation in and
confirm that the corresponding law reports a counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import puiseux as px
from .errors import DenominatorOverflow
from .puiseux import (DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, Rational,
                      elements_agree, units_agree)
from .series import F2Series

#: Grids the samplers draw from; mixes integer and fractional exponents.
SAMPLE_DENS = (1, 2, 3, 4, 6, 8, 12)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one law across all samples."""

    name: str
    checked: int
    failures: int
    first_counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a harness run; fully determined by (seed, parameters)."""

    kind: str
    seed: int
    samples: int
    aprec: Rational
    params: tuple[tuple[str, int], ...]
    skipped: int
    checks: tuple[AxiomCheck, ...]

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Tally:
    """Per-law accumulator preserving declaration order."""

    def __init__(self, names):
        self.names = tuple(names)
        self.checked = {n: 0 for n in self.names}
        self.failures = {n: 0 for n in self.names}
        self.first = {n: None for n in self.names}

    def commit(self, outcomes):
        for name, ok, witness in outcomes:
            self.checked[name] += 1
            if not ok:
                self.failures[name] += 1
                if self.first[name] is None:
                    self.first[name] = witness

    def checks(self):
        return tuple(AxiomCheck(n, self.checked[n], self.failures[n],
                                self.first[n]) for n in self.names)


def _rng(seed: int, kind: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{kind}:{index}")


def _grid_choices(aprec: Fraction):
    dens = [d for d in SAMPLE_DENS
            if (aprec * d).denominator == 1 and aprec * d >= 1]
    if not dens:
        raise ValueError(f"no sample grid carries precision {aprec}")
    return dens


def random_unit(rng: random.Random, aprec) -> PuiseuxUnit:
    """Fair coin per coefficient slot on a random grid, residue forced to 1."""
    aprec = Fraction(aprec)
    den = rng.choice(_grid_choices(aprec))
    prec = int(aprec * den)
    coeffs = 1 if prec == 1 else (rng.getrandbits(prec - 1) << 1) | 1
    return PuiseuxUnit(den, F2Series(coeffs, prec))


def random_rational(rng: random.Random, bound: int) -> Rational:
    """Numerator in [-bound, bound], denominator in [1, bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_element(rng: random.Random, aprec, bound: int) -> L0Element:
    return L0Element(random_rational(rng, bound), random_unit(rng, aprec))


def _render(x) -> str:
    # late import keeps textform free to depend on puiseux
    from .textform import format_element, format_unit

    if isinstance(x, L0Element):
        return format_element(x)
    if isinstance(x, PuiseuxUnit):
        return format_unit(x)
    return str(x)


def _witness(index: int, **inputs) -> str:
    rendered = " ".join(f"{k}={_render(v)}" for k, v in inputs.items())
    return f"sample {index}: {rendered}"


_VS_LAWS = (
    "scalar-distributes-over-scalar-addition",
    "scalar-distributes-over-product",
    "scalar-composition",
    "one-acts-identically",
    "zero-gives-identity",
    "decompose-splits-products",
)


def check_vector_space_axioms(samples: int, aprec, seed: int,
                              scalar_bound: int, *,
                              den_cap: int | None = DEFAULT_DEN_CAP
                              ) -> AxiomReport:
    """Test the rational vector-space laws on random elements.

    Scalars act through roots and powers, so both sides of each law are
    compared at the precision the root contractions leave available.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if scalar_bound < 1:
        raise ValueError("scalar_bound must be >= 1")
    aprec = Fraction(aprec)
    tally = _Tally(_VS_LAWS)
    skipped = 0
    for i in range(samples):
        rng = _rng(seed, "vector-space", i)
        r = random_rational(rng, scalar_bound)
        s = random_rational(rng, scalar_bound)
        a = random_element(rng, aprec, scalar_bound)
        b = random_element(rng, aprec, scalar_bound)
        witness = _witness(i, r=r, s=s, a=a, b=b)
        try:
            outcomes = []

            lhs = px.element_scalar_mul(r + s, a, den_cap=den_cap)
            rhs = px.element_mul(px.element_scalar_mul(r, a, den_cap=den_cap),
                                 px.element_scalar_mul(s, a, den_cap=den_cap),
                                 den_cap=den_cap)
            outcomes.append((_VS_LAWS[0], elements_agree(lhs, rhs), witness))

            lhs = px.element_scalar_mul(r, px.element_mul(a, b,
                                                          den_cap=den_cap),
                                        den_cap=den_cap)
            rhs = px.element_mul(px.element_scalar_mul(r, a, den_cap=den_cap),
                                 px.element_scalar_mul(r, b, den_cap=den_cap),
                                 den_cap=den_cap)
            outcomes.append((_VS_LAWS[1], elements_agree(lhs, rhs), witness))

            lhs = px.element_scalar_mul(r * s, a, den_cap=den_cap)
            rhs = px.element_scalar_mul(r, px.element_scalar_mul(
                s, a, den_cap=den_cap), den_cap=den_cap)
            outcomes.append((_VS_LAWS[2], elements_agree(lhs, rhs), witness))

            acted = px.element_scalar_mul(1, a, den_cap=den_cap)
            outcomes.append((_VS_LAWS[3], elements_agree(acted, a), witness))

            zeroed = px.element_scalar_mul(0, a, den_cap=den_cap)
            outcomes.append((_VS_LAWS[4],
                             elements_agree(zeroed, L0Element.one()), witness))

            prod = px.element_mul(a, b, den_cap=den_cap)
            got_val, got_unit = px.decompose(prod)
            want_unit = px.unit_mul(a.unit, b.unit, den_cap=den_cap)
            split_ok = (got_val == a.val + b.val
                        and units_agree(got_unit, want_unit))
            outcomes.append((_VS_LAWS[5], split_ok, witness))
        except DenominatorOverflow:
            skipped += 1
            continue
        tally.commit(outcomes)
    return AxiomReport("vector-space", seed, samples, aprec,
                       (("scalar_bound", scalar_bound),), skipped,
                       tally.checks())


def _largest_power_of_two_at_most(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def check_torsion_free(samples: int, n_max: int, aprec, seed: int, *,
                       den_cap: int | None = DEFAULT_DEN_CAP) -> AxiomReport:
    """Confirm that no sampled nonidentity unit has a power equal to 1.

    A power with an even exponent doubles the valuation of u - 1 per
    factor of two, so a sample is only usable when that valuation is
    small enough for every power up to n_max to stay visibly off 1 at
    the working precision; units indistinguishable from 1 under some
    power map are resampled, like the identity itself.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    aprec = Fraction(aprec)
    worst = _largest_power_of_two_at_most(n_max)
    if Fraction(1, max(_grid_choices(aprec))) * worst >= aprec:
        raise ValueError(
            f"aprec {aprec} cannot certify nontriviality of powers up "
            f"to {n_max} on the sample grids")
    tally = _Tally(("powers-stay-off-identity",))
    skipped = 0
    for i in range(samples):
        rng = _rng(seed, "torsion", i)
        u = random_unit(rng, aprec)
        while u.is_identity() or u.exponents()[1] * worst >= aprec:
            u = random_unit(rng, aprec)
        witness_u = u
        try:
            outcomes = []
            p = u
            outcomes.append(("powers-stay-off-identity", not p.is_identity(),
                             _witness(i, n=1, u=witness_u)))
            for n in range(2, n_max + 1):
                p = px.unit_mul(p, u, den_cap=den_cap)
                outcomes.append(("powers-stay-off-identity",
                                 not p.is_identity(),
                                 _witness(i, n=n, u=witness_u)))
        except DenominatorOverflow:
            skipped += 1
            continue
        tally.commit(outcomes)
    return AxiomReport("torsion", seed, samples, aprec,
                       (("n_max", n_max),), skipped, tally.checks())


_BIJ_LAWS = (
    "root-then-power-returns",
    "power-then-root-returns",
    "power-is-homomorphism",
)


def check_root_bijectivity(samples: int, k_max: int, aprec, seed: int, *,
                           den_cap: int | None = DEFAULT_DEN_CAP
                           ) -> AxiomReport:
    """Round-trip every power map against its root, both ways."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    aprec = Fraction(aprec)
    tally = _Tally(_BIJ_LAWS)
    skipped = 0
    for i in range(samples):
        rng = _rng(seed, "bijectivity", i)
        u = random_unit(rng, aprec)
        v = random_unit(rng, aprec)
        try:
            outcomes = []
            for k in range(1, k_max + 1):
                witness = _witness(i, k=k, u=u, v=v)
                root = px.unit_root(u, k, den_cap=den_cap)
                outcomes.append((_BIJ_LAWS[0],
                                 units_agree(px.unit_pow(root, k), u),
                                 witness))
                power = px.unit_pow(u, k)
                back = px.unit_root(power, k, den_cap=den_cap)
                outcomes.append((_BIJ_LAWS[1], units_agree(back, u), witness))
                both = px.unit_pow(px.unit_mul(u, v, den_cap=den_cap), k)
                split = px.unit_mul(px.unit_pow(u, k), px.unit_pow(v, k),
                                    den_cap=den_cap)
                outcomes.append((_BIJ_LAWS[2], units_agree(both, split),
                                 witness))
        except DenominatorOverflow:
            skipped += 1
            continue
        tally.commit(outcomes)
    return AxiomReport("bijectivity", seed, samples, aprec,
                       (("k_max", k_max),), skipped, tally.checks())
