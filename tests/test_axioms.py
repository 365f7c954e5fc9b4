import tracemalloc
from fractions import Fraction as Q

import pytest

import f2puiseux.puiseux as px
from f2puiseux import (F2Series, OutOfRange, PuiseuxUnit,
                       check_root_bijectivity, check_torsion_free,
                       check_vector_space_axioms)
from f2puiseux import axioms, series
from f2puiseux.axioms import random_unit, _rng


class TestDeterminism:
    def test_reports_are_pure_functions_of_inputs(self):
        a = check_vector_space_axioms(30, 32, seed=5, scalar_bound=5)
        b = check_vector_space_axioms(30, 32, seed=5, scalar_bound=5)
        assert a == b
        c = check_vector_space_axioms(30, 32, seed=6, scalar_bound=5)
        assert a != c

    def test_torsion_and_bijectivity_deterministic(self):
        assert (check_torsion_free(20, 16, 32, seed=3)
                == check_torsion_free(20, 16, 32, seed=3))
        assert (check_root_bijectivity(15, 8, 32, seed=3)
                == check_root_bijectivity(15, 8, 32, seed=3))


class TestVectorSpace:
    def test_clean_run_passes(self):
        report = check_vector_space_axioms(100, 64, seed=42, scalar_bound=9)
        assert report.passed
        assert report.failures == 0
        assert len(report.checks) == 6
        for check in report.checks:
            assert check.checked + report.skipped == 100
            assert check.first_counterexample is None

    def test_fixed_trivial_sample_passes(self):
        report = check_vector_space_axioms(1, 8, seed=0, scalar_bound=1)
        assert report.passed

    def test_skips_counted_not_failed(self):
        # a cap of 1 forbids every fractional grid the sampler produces
        report = check_vector_space_axioms(20, 16, seed=2, scalar_bound=7,
                                           den_cap=1)
        assert report.failures == 0
        assert report.skipped > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            check_vector_space_axioms(0, 16, seed=1, scalar_bound=3)
        with pytest.raises(ValueError):
            check_vector_space_axioms(5, 16, seed=1, scalar_bound=0)


@pytest.mark.parametrize("harness,bound,bad,message", [
    (lambda samples, bound: check_vector_space_axioms(
        samples, 16, seed=1, scalar_bound=bound), 3, 0, "scalar_bound"),
    (lambda samples, bound: check_torsion_free(samples, bound, 64, seed=1),
     8, 1, "n_max"),
    (lambda samples, bound: check_root_bijectivity(samples, bound, 16,
                                                   seed=1), 4, 1, "k_max")],
    ids=["vector-space", "torsion", "bijectivity"])
def test_sample_count_checked_by_the_shared_loop(harness, bound, bad,
                                                 message):
    # each harness checks its own parameters first, then the shared
    # loop checks the sample count before it draws
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        harness(0, bound)
    with pytest.raises(ValueError, match=f"^{message} must be >= {bad + 1}$"):
        harness(0, bad)


class TestTorsion:
    def test_clean_run_passes(self):
        report = check_torsion_free(50, 32, 64, seed=7)
        assert report.passed
        assert report.checks[0].checked == 50 * 32

    def test_identity_resampled(self):
        # samples indistinguishable from 1 never reach the assertions
        report = check_torsion_free(30, 8, 4, seed=11)
        assert report.passed

    def test_aprec_too_small_rejected(self):
        with pytest.raises(ValueError):
            check_torsion_free(5, 64, 2, seed=1)

    def test_nmax_validated(self):
        with pytest.raises(ValueError):
            check_torsion_free(5, 1, 64, seed=1)

    def test_long_nmax_named_by_its_digit_count(self):
        for n_max, brief in ((10 ** 5000, "<5001 digits>"),
                             (10 ** 39, str(10 ** 39))):
            with pytest.raises(ValueError, match=(
                    f"^aprec 64 cannot certify nontriviality of powers up "
                    f"to {brief} on the sample grids$")):
                check_torsion_free(5, n_max, 64, seed=1)


class TestBijectivity:
    def test_clean_run_passes(self):
        report = check_root_bijectivity(40, 12, 64, seed=9)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "root-then-power-returns", "power-then-root-returns",
            "power-is-homomorphism"}

    def test_precision_contracts_with_two_part(self):
        # k = 12 contracts by 4: still exact round trips at aprec/4
        report = check_root_bijectivity(10, 12, 64, seed=13)
        assert report.passed


    def test_one_product_of_the_drawn_pair_per_sample(self, monkeypatch):
        # u * v does not depend on k, so it is built once per sample; the
        # other products are u**k * v**k, one per k
        honest_mul, honest_draw = px.unit_mul, axioms.random_unit
        calls, drawn = [], []

        def counted(u, v, *, den_cap=px.DEFAULT_DEN_CAP):
            calls.append((u, v))
            return honest_mul(u, v, den_cap=den_cap)

        def recorded(rng, aprec):
            drawn.append(honest_draw(rng, aprec))
            return drawn[-1]
        monkeypatch.setattr(px, "unit_mul", counted)
        monkeypatch.setattr(axioms, "random_unit", recorded)
        samples, k_max = 5, 6
        report = check_root_bijectivity(samples, k_max, 64, seed=3)
        assert report.passed and report.skipped == 0
        assert len(drawn) == 2 * samples
        for u, v in zip(drawn[::2], drawn[1::2]):
            assert sum(a is u and b is v for a, b in calls) == 1
        assert len(calls) == samples * (k_max + 1)


# The four injected faults, each a broken copy of one `puiseux` entry:
# patch FAULTS[name] in as px.<name>, and a harness must catch it.
_honest_mul, _honest_scalar = px.unit_mul, px.scalar_mul_unit
_honest_root, _honest_decompose = px.unit_root, px.decompose


def _skew(out):
    return PuiseuxUnit(out.den, F2Series(out.body.coeffs ^ 2, out.body.prec))


def _lossy_mul(u, v, *, den_cap=px.DEFAULT_DEN_CAP):
    # drops the top coefficient of every product
    out = _honest_mul(u, v, den_cap=den_cap)
    top = out.body.prec - 1
    return PuiseuxUnit(out.den, F2Series(out.body.coeffs & ~(1 << top),
                                         out.body.prec))


def _skewed_scalar(r, u, *, den_cap=px.DEFAULT_DEN_CAP):
    out = _honest_scalar(r, u, den_cap=den_cap)
    return _skew(out) if Q(r).denominator > 1 else out


def _skewed_root(u, k, *, den_cap=px.DEFAULT_DEN_CAP):
    out = _honest_root(u, k, den_cap=den_cap)
    return _skew(out) if k > 1 else out


def _shifted_decompose(a):
    val, unit = _honest_decompose(a)
    return val + 1, unit


FAULTS = {"unit_mul": _lossy_mul, "scalar_mul_unit": _skewed_scalar,
          "unit_root": _skewed_root, "decompose": _shifted_decompose}


class TestFaultInjection:
    """Acceptance criterion 4 runs every fault; this names the law that
    catches a shifted valuation."""

    def test_decompose_valuation_shift_is_caught(self, monkeypatch):
        monkeypatch.setattr(px, "decompose", FAULTS["decompose"])
        report = check_vector_space_axioms(10, 32, seed=42, scalar_bound=9)
        assert not report.passed
        bad = {c.name for c in report.checks if c.failures}
        assert "decompose-splits-products" in bad


class TestSampler:
    def test_grids_respect_precision(self):
        rng = _rng(0, "demo", 0)
        for _ in range(50):
            u = random_unit(rng, Q(3, 2))
            assert u.aprec == Q(3, 2)

    def test_unusable_precision_rejected(self):
        rng = _rng(0, "demo", 1)
        with pytest.raises(ValueError):
            random_unit(rng, Q(1, 5))

    def test_long_precision_named_by_its_digit_count(self):
        # str() of an int of over 4300 digits raises, so the message
        # counts the digits of a long term instead of printing it
        rng = _rng(0, "demo", 2)
        for aprec, brief in ((Q(1, 10 ** 5000), "1/<5001 digits>"),
                             (Q(1, 10 ** 4299), "1/<4300 digits>"),
                             (Q(-(10 ** 60), 7), "-<61 digits>/7"),
                             (Q(1, 10 ** 39), f"1/{10 ** 39}"),
                             (Q(0), "0")):
            with pytest.raises(ValueError, match=(
                    f"^no sample grid carries precision {brief}$")):
                random_unit(rng, aprec)

    def test_grid_past_the_power_budget_refused_before_drawing(
            self, monkeypatch):
        # the bits of a sample on the finest usable grid, aprec * 12 here,
        # are checked against the budget before anything is drawn or built
        rng = _rng(0, "demo", 3)
        state = rng.getstate()
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange, match=(
                    "^aprec 100000000000 needs samples of 1200000000000 "
                    f"bits, past the budget of {series._BIT_BUDGET} bits$")):
                random_unit(rng, Q(10 ** 11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16 and rng.getstate() == state
        # the harnesses read the budget from series when they run
        monkeypatch.setattr(series, "_BIT_BUDGET", 96)
        assert random_unit(rng, 8).aprec == 8
        with pytest.raises(OutOfRange):
            check_root_bijectivity(1, 2, Q(17, 2), 0)  # 17/2 * 12 > 96

    def test_digit_counts_at_powers_of_ten(self):
        for k in range(41, 400):
            for n in (10 ** k - 1, 10 ** k, 10 ** k + 1):
                assert axioms._brief(Q(n)) == f"<{len(str(n))} digits>"


@pytest.fixture
def lossy_mul(monkeypatch):
    """px.unit_mul replaced by the top-coefficient-dropping fault."""
    monkeypatch.setattr(px, "unit_mul", FAULTS["unit_mul"])


def _faulty_runs():
    return (check_vector_space_axioms(12, 2, seed=2, scalar_bound=3,
                                      den_cap=24),
            check_torsion_free(20, 4, 1, seed=42),
            check_root_bijectivity(6, 4, 2, seed=2))


class TestWitnesses:
    def test_golden_counterexamples(self, lossy_mul):
        vs, torsion, bij = _faulty_runs()
        assert vs.skipped == 1
        assert [(c.checked, c.failures) for c in vs.checks] == [
            (11, 5), (11, 2), (11, 0), (11, 0), (11, 0), (11, 0)]
        assert [c.first_counterexample for c in vs.checks[:2]] == [
            "sample 4: r=1 s=-2/3 a=x^(-2/3) * 1 + x^(1) + O(x^(2)) "
            "b=x^(-3) * 1 + x^(1/2) + x^(1) + O(x^(2))",
            "sample 5: r=-1/3 s=1/2 a=x^(-2/3) * 1 + x^(2/3) + x^(1) "
            "+ x^(4/3) + x^(5/3) + O(x^(2)) b=x^(-3/2) * 1 + x^(1/8) "
            "+ x^(5/8) + x^(3/4) + x^(9/8) + x^(5/4) + x^(7/4) + O(x^(2))"]
        assert torsion.skipped == 0
        (check,) = torsion.checks
        assert (check.checked, check.failures) == (80, 4)
        assert check.first_counterexample == (
            "sample 2: n=4 u=1 + x^(1/6) + x^(2/3) + O(x^(1))")
        assert bij.skipped == 0
        assert [(c.checked, c.failures) for c in bij.checks] == [
            (24, 0), (24, 0), (24, 8)]
        assert bij.checks[2].first_counterexample == (
            "sample 0: k=2 u=1 + x^(1) + O(x^(2)) "
            "v=1 + x^(1/2) + x^(1) + x^(3/2) + O(x^(2))")

    @pytest.fixture
    def renders(self, monkeypatch):
        calls = []
        honest = axioms._render

        def counted(x):
            calls.append(x)
            return honest(x)

        monkeypatch.setattr(axioms, "_render", counted)
        return calls

    def test_clean_and_skipped_runs_render_nothing(self, renders):
        assert check_vector_space_axioms(20, 16, seed=4,
                                         scalar_bound=5).passed
        assert check_torsion_free(10, 16, 32, seed=4).passed
        assert check_root_bijectivity(5, 8, 32, seed=4).passed
        skipping = check_vector_space_axioms(20, 16, seed=2, scalar_bound=7,
                                             den_cap=1)
        assert skipping.skipped == 20
        assert renders == []

    def test_one_witness_per_failing_law(self, lossy_mul, renders):
        # a witness renders each of its inputs once: r, s, a, b for the
        # vector-space laws, n, u for torsion and k, u, v for bijectivity
        failing = [sum(c.failures > 0 for c in report.checks)
                   for report in _faulty_runs()]
        assert failing == [2, 1, 1]
        assert len(renders) == 4 * 2 + 2 * 1 + 3 * 1
