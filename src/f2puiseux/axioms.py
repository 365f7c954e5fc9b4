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
The harnesses share one sampling loop, which renders a counterexample
only on a law's first failure; elements and units are immutable, so
the text is what the sample would have rendered when drawn.

The harnesses call the group operations through the `puiseux` module
object, so a test can swap a deliberately broken operation in and
confirm that the corresponding law reports a counterexample.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import puiseux as px
from ._value import Value
from .errors import DenominatorOverflow, _brief
from .puiseux import (DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, Rational,
                      elements_agree, units_agree)
from .series import F2Series

#: Grids the samplers draw from; mixes integer and fractional exponents.
SAMPLE_DENS = (1, 2, 3, 4, 6, 8, 12)


class AxiomCheck(Value):
    """Outcome of one law across all samples."""

    __slots__ = __match_args__ = ("name", "checked", "failures",
                                  "first_counterexample")

    def __init__(self, name: str, checked: int, failures: int,
                 first_counterexample: str | None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "first_counterexample",
                           first_counterexample)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.checked, self.failures,
                 self.first_counterexample)
                == (other.name, other.checked, other.failures,
                    other.first_counterexample))

    def __hash__(self):
        return hash((self.name, self.checked, self.failures,
                     self.first_counterexample))

    @property
    def passed(self) -> bool:
        return self.failures == 0


class AxiomReport(Value):
    """Outcome of a harness run; fully determined by (seed, parameters)."""

    __slots__ = __match_args__ = ("kind", "seed", "samples", "aprec",
                                  "params", "skipped", "checks")

    def __init__(self, kind: str, seed: int, samples: int, aprec: Rational,
                 params: tuple[tuple[str, int], ...], skipped: int,
                 checks: tuple[AxiomCheck, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "aprec", aprec)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "skipped", skipped)
        object.__setattr__(self, "checks", checks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.seed, self.samples, self.aprec, self.params,
                 self.skipped, self.checks)
                == (other.kind, other.seed, other.samples, other.aprec,
                    other.params, other.skipped, other.checks))

    def __hash__(self):
        return hash((self.kind, self.seed, self.samples, self.aprec,
                     self.params, self.skipped, self.checks))

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rng(seed: int, kind: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{kind}:{index}")


def _grid_choices(aprec: Fraction):
    # aprec * d is a positive integer
    dens = [d for d in SAMPLE_DENS if d % aprec.denominator == 0
            and aprec.numerator * d >= aprec.denominator]
    if not dens:
        raise ValueError(
            f"no sample grid carries precision {_brief(aprec)}")
    return dens


def random_unit(rng: random.Random, aprec) -> PuiseuxUnit:
    """Fair coin per coefficient slot on a random grid, residue forced to 1."""
    aprec = Fraction(aprec)
    den = rng.choice(_grid_choices(aprec))
    prec = aprec.numerator * den // aprec.denominator
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


def _run(kind: str, names, samples: int, seed: int, aprec: Fraction,
         params: tuple[tuple[str, int], ...], draw, laws) -> AxiomReport:
    """Tally `laws` over one draw per sample.

    `draw` maps the sample's generator to the arguments of `laws`, which
    yields (law name, holds, witness inputs) per check.  A sample whose
    checks hit the denominator cap is skipped as a whole.
    """
    # [checked, failures, first counterexample] per law, in declaration
    # order
    tally = {name: [0, 0, None] for name in names}
    skipped = 0
    for i in range(samples):
        drawn = draw(_rng(seed, kind, i))
        try:
            outcomes = list(laws(*drawn))
        except DenominatorOverflow:
            skipped += 1
            continue
        for name, ok, inputs in outcomes:
            law = tally[name]
            law[0] += 1
            if not ok:
                law[1] += 1
                if law[2] is None:
                    law[2] = _witness(i, **inputs)
    return AxiomReport(kind, seed, samples, aprec, params, skipped,
                       tuple(AxiomCheck(n, *law) for n, law in tally.items()))


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

    def draw(rng):
        return (random_rational(rng, scalar_bound),
                random_rational(rng, scalar_bound),
                random_element(rng, aprec, scalar_bound),
                random_element(rng, aprec, scalar_bound))

    def act(q, x):
        return px.element_scalar_mul(q, x, den_cap=den_cap)

    def mul(x, y):
        return px.element_mul(x, y, den_cap=den_cap)

    def laws(r, s, a, b):
        inputs = {"r": r, "s": s, "a": a, "b": b}
        # the operations are pure, so each operand the laws share is built
        # once per sample
        ra, sa, ab = act(r, a), act(s, a), mul(a, b)
        yield _VS_LAWS[0], elements_agree(act(r + s, a), mul(ra, sa)), inputs
        yield (_VS_LAWS[1], elements_agree(act(r, ab), mul(ra, act(r, b))),
               inputs)
        yield _VS_LAWS[2], elements_agree(act(r * s, a), act(r, sa)), inputs
        yield _VS_LAWS[3], elements_agree(act(1, a), a), inputs
        yield _VS_LAWS[4], elements_agree(act(0, a), L0Element.one()), inputs
        got_val, got_unit = px.decompose(ab)
        want_unit = px.unit_mul(a.unit, b.unit, den_cap=den_cap)
        yield (_VS_LAWS[5], got_val == a.val + b.val
               and units_agree(got_unit, want_unit), inputs)

    return _run("vector-space", _VS_LAWS, samples, seed, aprec,
                (("scalar_bound", scalar_bound),), draw, laws)


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
    worst = 1 << (n_max.bit_length() - 1)  # the largest power of 2 <= n_max
    if Fraction(1, max(_grid_choices(aprec))) * worst >= aprec:
        raise ValueError(
            f"aprec {_brief(aprec)} cannot certify nontriviality of "
            f"powers up to {_brief(n_max)} on the sample grids")
    law = "powers-stay-off-identity"

    def draw(rng):
        while True:
            u = random_unit(rng, aprec)
            # the lowest set bit of u - 1 is its valuation on u's grid
            rest = u.body.coeffs ^ 1
            low = (rest & -rest).bit_length() - 1
            if rest and Fraction(low, u.den) * worst < aprec:
                return (u,)

    def laws(u):
        p = u
        for n in range(1, n_max + 1):
            if n > 1:
                p = px.unit_mul(p, u, den_cap=den_cap)
            yield law, not p.is_identity(), {"n": n, "u": u}

    return _run("torsion", (law,), samples, seed, aprec,
                (("n_max", n_max),), draw, laws)


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

    def draw(rng):
        return random_unit(rng, aprec), random_unit(rng, aprec)

    def laws(u, v):
        # the operations are pure, so u * v is built once per sample
        uv = px.unit_mul(u, v, den_cap=den_cap)
        for k in range(1, k_max + 1):
            inputs = {"k": k, "u": u, "v": v}
            root = px.unit_root(u, k, den_cap=den_cap)
            yield _BIJ_LAWS[0], units_agree(px.unit_pow(root, k), u), inputs
            uk = px.unit_pow(u, k)
            back = px.unit_root(uk, k, den_cap=den_cap)
            yield _BIJ_LAWS[1], units_agree(back, u), inputs
            both = px.unit_pow(uv, k)
            split = px.unit_mul(uk, px.unit_pow(v, k), den_cap=den_cap)
            yield _BIJ_LAWS[2], units_agree(both, split), inputs

    return _run("bijectivity", _BIJ_LAWS, samples, seed, aprec,
                (("k_max", k_max),), draw, laws)
