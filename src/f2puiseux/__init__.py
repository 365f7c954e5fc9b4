"""Exact arithmetic on truncated fractional-exponent series over GF(2).

The package realizes a multiplicative group on which every rational
number acts: truncated power series over GF(2) support unique odd
roots (integer powers, as the units modulo t**P form a group whose
exponent is a power of 2) and unconditional square roots (exponent
grid refinement), valuations split off as exact rationals, and a seeded
harness checks the vector-space laws that result.  A companion module
answers the same linear-space question for the multiplicative groups
of finite fields, with a brute-force oracle to confront the
closed-form rule.
"""

from .errors import (DenominatorOverflow, ElementSyntaxError, EvenK,
                     ExponentNotIncreasing, Indistinguishable,
                     NonpositivePrecision, NonUnitLeadingTerm, NotAUnit,
                     OddSupport, OutOfRange, ParseError)
from .series import F2Series, add, inv, kth_root_odd, mul, pow_int, sqrt
from .puiseux import (DEFAULT_DEN_CAP, L0Element, PuiseuxUnit, compose,
                      decompose, decompose_raw, element_inv, element_mul,
                      element_pow, element_root, element_scalar_mul,
                      elements_agree, scalar_mul_unit, unit_inv, unit_mul,
                      unit_pow, unit_root, unit_sqrt, units_agree)
from .textform import format_element, format_unit, parse_element, parse_unit
from .axioms import (AxiomCheck, AxiomReport, check_root_bijectivity,
                     check_torsion_free, check_vector_space_axioms)
from .finfield import (FqVerdict, PrimePower, elementary_abelian_oracle,
                       linear_space_verdict, lucas_lehmer, mersenne_exponent,
                       prime_power_scan)

__version__ = "0.1.0"

__all__ = [
    "F2Series", "add", "mul", "inv", "sqrt", "kth_root_odd", "pow_int",
    "PuiseuxUnit", "L0Element", "DEFAULT_DEN_CAP",
    "unit_mul", "unit_inv", "unit_sqrt", "unit_pow",
    "unit_root", "scalar_mul_unit", "units_agree", "elements_agree",
    "element_mul", "element_inv", "element_pow", "element_root",
    "element_scalar_mul", "compose", "decompose", "decompose_raw",
    "parse_element", "parse_unit", "format_element", "format_unit",
    "AxiomCheck", "AxiomReport", "check_vector_space_axioms",
    "check_torsion_free", "check_root_bijectivity",
    "PrimePower", "FqVerdict", "linear_space_verdict",
    "elementary_abelian_oracle", "mersenne_exponent", "lucas_lehmer",
    "prime_power_scan",
    "NotAUnit", "OddSupport", "EvenK", "DenominatorOverflow",
    "Indistinguishable", "OutOfRange", "ParseError", "ElementSyntaxError",
    "NonUnitLeadingTerm", "NonpositivePrecision", "ExponentNotIncreasing",
]
