"""The contract of the seven value types.

Group elements, census rows and harness reports are slotted classes
on one immutable base.  Each keeps the constructor, repr, equality and
hash it had as a frozen dataclass; assignment and deletion raise
AttributeError, and copy and pickle rebuild the value through its
constructor.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from f2puiseux import (AxiomCheck, AxiomReport, F2Series, FqVerdict,
                       L0Element, PrimePower, PuiseuxUnit)

ROOT = Path(__file__).resolve().parents[1]

UNIT = PuiseuxUnit(4, F2Series(0b10001, 8))
CHECK = AxiomCheck("assoc", 3, 1, "x^(1) * 1 + O(x^(2))")

# (positional value, the same from keywords, repr, __match_args__);
# the reprs are those of the frozen dataclasses these types replace
CASES = [
    (F2Series(0b1011, 6), lambda: F2Series(coeffs=0b1011, prec=6),
     "F2Series(1 + t + t^3 + O(t^6))", ("coeffs", "prec")),
    (UNIT, lambda: PuiseuxUnit(den=4, body=F2Series(0b10001, 8)),
     "PuiseuxUnit(1 + x^(1) + O(x^(2)))", ("den", "body")),
    (L0Element(Fraction(-1, 3), UNIT),
     lambda: L0Element(val=Fraction(-1, 3), unit=UNIT),
     "L0Element(x^(-1/3) * PuiseuxUnit(1 + x^(1) + O(x^(2))))",
     ("val", "unit")),
    (PrimePower(2, 7), lambda: PrimePower(p=2, n=7),
     "PrimePower(p=2, n=7)", ("p", "n")),
    (FqVerdict(True, 127, 1),
     lambda: FqVerdict(is_space=True, scalar_order=127, dim=1),
     "FqVerdict(is_space=True, scalar_order=127, dim=1)",
     ("is_space", "scalar_order", "dim")),
    (CHECK, lambda: AxiomCheck(name="assoc", checked=3, failures=1,
                               first_counterexample="x^(1) * 1 + O(x^(2))"),
     "AxiomCheck(name='assoc', checked=3, failures=1, "
     "first_counterexample='x^(1) * 1 + O(x^(2))')",
     ("name", "checked", "failures", "first_counterexample")),
    (AxiomReport("vector_space", 5, 3, Fraction(4), (("bound", 6),), 0,
                 (CHECK,)),
     lambda: AxiomReport(kind="vector_space", seed=5, samples=3,
                         aprec=Fraction(4), params=(("bound", 6),),
                         skipped=0, checks=(CHECK,)),
     "AxiomReport(kind='vector_space', seed=5, samples=3, "
     "aprec=Fraction(4, 1), params=(('bound', 6),), skipped=0, "
     "checks=(AxiomCheck(name='assoc', checked=3, failures=1, "
     "first_counterexample='x^(1) * 1 + O(x^(2))'),))",
     ("kind", "seed", "samples", "aprec", "params", "skipped", "checks")),
]
IDS = [type(case[0]).__name__ for case in CASES]
# the algebra types compare by truncation, so they have no hash
UNHASHABLE = (F2Series, PuiseuxUnit, L0Element)


def fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def positional(x):
    # the fields, bound by positional class patterns
    match x:
        case (F2Series(a, b) | PuiseuxUnit(a, b) | L0Element(a, b)
              | PrimePower(a, b)):
            return a, b
        case FqVerdict(a, b, c):
            return a, b, c
        case AxiomCheck(a, b, c, d):
            return a, b, c, d
        case AxiomReport(a, b, c, d, e, f, g):
            return a, b, c, d, e, f, g


@pytest.mark.parametrize("x, by_keyword, text, match_args", CASES, ids=IDS)
class TestValueType:
    def test_repr(self, x, by_keyword, text, match_args):
        assert repr(x) == text

    def test_keywords(self, x, by_keyword, text, match_args):
        y = by_keyword()
        assert type(y) is type(x) and y == x and repr(y) == text

    def test_match_args(self, x, by_keyword, text, match_args):
        assert type(x).__match_args__ == match_args
        assert positional(x) == fields(x)

    def test_eq_and_hash(self, x, by_keyword, text, match_args):
        assert x == by_keyword() and not x != by_keyword()
        assert x != fields(x) and x != list(fields(x))
        if isinstance(x, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(x)
        else:
            # type-exact, and hashed as the tuple of its fields
            assert x.__eq__(fields(x)) is NotImplemented
            assert hash(x) == hash(by_keyword()) == hash(fields(x))

    def test_immutable(self, x, by_keyword, text, match_args):
        assert not hasattr(x, "__dict__")
        for name in (*match_args, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == text

    @pytest.mark.parametrize("twin", [
        copy.copy, copy.deepcopy,
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0))],
        ids=["copy", "deepcopy", "pickle", "pickle0"])
    def test_copy_and_pickle(self, x, by_keyword, text, match_args, twin):
        y = twin(x)
        assert type(y) is type(x) and y == x and repr(y) == text


def test_verdict_defaults():
    assert FqVerdict(False) == FqVerdict(False, None, None)
    assert FqVerdict(is_space=True, dim=0) == FqVerdict(True, None, 0)


def test_prime_power_reads_p_and_n_only():
    # q is derived, so it is no argument and no part of the repr or key
    pp = PrimePower(3, 4)
    assert pp.q == 81 and fields(pp) == (3, 4)
    assert copy.deepcopy(pp).q == 81 and pickle.loads(pickle.dumps(pp)).q == 81


def test_import_leaves_dataclasses_and_inspect_out():
    # no value type is a dataclass, so importing the command pulls in
    # neither module; -S keeps site hooks out of the count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, f2puiseux.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
