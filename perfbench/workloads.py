"""The four benchmark workloads: inputs made from a seed, the call, the check.

Every workload has a fixed pool of operations whose item i is a pure
function of i.  The pool is spread over strata (an op kind crossed with
a size octave, say), and a run makes repeated passes over the whole
pool, each pass in its own order drawn from the seed.  Seeds thus change
the order, not the work, which keeps runs comparable; the repeats let
the runner take each item's median time.

Inputs are plain data (ints, Fractions, strings) made without the
package; `prepare` turns them into package objects outside the timed
call.  `check` tests the properties an output must have and returns its
digest; the runner compares the digest with the one stored for the item
in expected.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from bisect import bisect_right
from contextlib import redirect_stdout
from fractions import Fraction
from math import isqrt

DENS = (1, 2, 3, 4, 6, 8, 12)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _element_digest(a) -> str:
    return _digest(f"{a.val}|{a.unit.den}|{a.unit.body.prec}|"
                   f"{a.unit.body.coeffs:x}")


class Workload:
    """A fixed pool of operations; subclasses fill in the parts."""

    name = ""
    pool_size = 1

    def __init__(self, seed: int):
        self.seed = seed

    def order(self, p: int) -> list:
        """Every pool item once, in the seeded order of pass p."""
        items = list(range(self.pool_size))
        random.Random(f"{self.name}:{self.seed}:pass:{p}").shuffle(items)
        return items

    def item(self, i: int):
        """The plain-data inputs of pool item i.

        Item -1 lies outside the pool: the untimed warm-up operation,
        whose call fills the package's lazy caches.
        """
        raise NotImplementedError

    def prepare(self, mods, spec):
        return self.item(spec)

    def call(self, mods, args):
        raise NotImplementedError

    def check(self, spec, args, out) -> tuple[bool, str, dict]:
        """(properties hold, digest, accounting) of one output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dense: library calls on large dense elements

DENSE_KINDS = ("mul", "inv", "root", "scalar_mul", "pow")
ROOT_KS = (3, 5, 31, 6, 12)


def _nonzero(rng, bound):
    return rng.choice([n for n in range(-bound, bound + 1) if n])


class Dense(Workload):
    """Kinds x body-size octaves 2^10..2^14 bits, five items each."""

    name = "dense"
    strata = len(DENSE_KINDS) * 4
    pool_size = strata * 5

    def item(self, i):
        rng = random.Random(f"dense:{i}")
        if i < 0:
            return "root", ((Fraction(1, 3), 3,
                             (rng.getrandbits(4095) << 1) | 1, 4096), 3)
        s = i % self.strata
        kind = DENSE_KINDS[s % len(DENSE_KINDS)]
        bits = int(2 ** (10 + s // len(DENSE_KINDS) + rng.random()))

        def element(den):
            body = (rng.getrandbits(bits - 1) << 1) | 1
            val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return val, den, body, bits

        if kind == "mul":
            d1, d2 = rng.sample(DENS, 2)
            return kind, (element(d1), element(d2))
        a = element(rng.choice(DENS))
        if kind == "inv":
            return kind, (a,)
        if kind == "root":
            return kind, (a, rng.choice(ROOT_KS))
        if kind == "scalar_mul":
            return kind, (Fraction(_nonzero(rng, 9), rng.randint(1, 9)), a)
        return kind, (a, rng.choice((-1, 1)) * rng.randint(2, 9))

    def prepare(self, mods, spec):
        kind, args = self.item(spec)

        def build(raw):
            val, den, body, bits = raw
            px = mods.puiseux
            return px.L0Element(val, px.PuiseuxUnit(
                den, mods.series.F2Series(body, bits)))

        return kind, tuple(build(x) if isinstance(x, tuple) else x
                           for x in args)

    def call(self, mods, args):
        kind, a = args
        return getattr(mods.puiseux, f"element_{kind}")(*a)

    def check(self, spec, args, out):
        return True, _element_digest(out), {}


# ---------------------------------------------------------------------------
# wire: CLI calls on non-canonical element text

WIRE_CMDS = ("mul", "inv", "pow", "root", "scalar-mul", "decompose",
             "compose")
_SEPARATORS = (" + ", "+", "  +   ", " +", "+ ")


def _exponent(rng, e: Fraction) -> str:
    num, den = e.numerator, e.denominator
    if den == 1 and rng.random() < 0.5:
        return f"x^{num}"
    if rng.random() < 0.25:  # an unreduced fraction
        k = rng.randint(2, 3)
        num, den = num * k, den * k
    return f"x^({num})" if den == 1 else f"x^({num}/{den})"


def _element_parts(rng, terms, form):
    """Terms of an element text as a list, the precision marker last.

    form "unit" starts with 1, "factored" with a valuation factor, and
    "raw" is an unfactored sum of powers.
    """
    den = rng.choice(DENS)
    span = 2 * terms
    rel = [Fraction(j, den) for j in sorted(rng.sample(range(1, span),
                                                       terms - 1))]
    prec = Fraction(span, den)
    v = Fraction(rng.randint(-40, 40), rng.choice(DENS))
    if form == "raw":
        return ([_exponent(rng, v)] + [_exponent(rng, v + e) for e in rel]
                + [f"O({_exponent(rng, v + prec)})"])
    head = "1"
    if form == "factored":
        head = f"{_exponent(rng, v)}{rng.choice(('*', ' * ', '  *'))}1"
    return ([head] + [_exponent(rng, e) for e in rel]
            + [f"O({_exponent(rng, prec)})"])


def _join(rng, parts):
    out = [rng.choice(("", " ")), parts[0]]
    for p in parts[1:]:
        out += [rng.choice(_SEPARATORS), p]
    return "".join(out)


def _rational(rng):
    r = Fraction(_nonzero(rng, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        return str(r)
    return f"{r.numerator * 2}/{r.denominator * 2}"  # unreduced


def _malformed(rng, terms, defect):
    """Element text with defect 0..5, and the typed error it must raise."""
    parts = _element_parts(rng, terms, "unit")
    mid = rng.randrange(1, len(parts) - 2)
    if defect == 0:
        parts[mid], parts[mid + 1] = parts[mid + 1], parts[mid]
        return parts, "ExponentNotIncreasing"
    if defect == 1:
        return parts[:-1], "ElementSyntaxError"
    if defect == 2:
        parts[mid] = "x^(1/0)"
        return parts, "ElementSyntaxError"
    if defect == 3:
        parts.insert(-1, "x^(1000000)")
        return parts, "NonpositivePrecision"
    if defect == 4:
        parts[0] = "x^(1/2) * x^(1)"
        return parts, "NonUnitLeadingTerm"
    bad = parts[mid]  # an unbalanced parenthesis
    parts[mid] = bad.replace(")", "", 1) if ")" in bad else bad + "("
    return parts, "ElementSyntaxError"


class Wire(Workload):
    """Commands x term-count octaves 2^8..2^13, then one malformed input
    per defect."""

    name = "wire"
    strata = len(WIRE_CMDS) * 5
    pool_size = strata + 6

    def item(self, i):
        """(argv, expected error type or None)."""
        if i < 0:
            return (["mul", "1 + x^2 + O(x^5)", "x^(1/2) * 1 + x^1 + O(x^3)",
                     "--format", "records"], None)
        rng = random.Random(f"wire:{i}")
        if i >= self.strata:
            parts, error = _malformed(rng, int(2 ** (8 + 2 * rng.random())),
                                      i - self.strata)
            cmd = rng.choice(("inv", "decompose", "root", "compose"))
            text = _join(rng, parts)
            argv = {"inv": ["inv", text], "decompose": ["decompose", text],
                    "root": ["root", text, "3"],
                    "compose": ["compose", "1/2", text]}[cmd]
            return argv + ["--format", "records"], error
        cmd = WIRE_CMDS[i % len(WIRE_CMDS)]
        terms = int(2 ** (8 + i // len(WIRE_CMDS) + rng.random()))

        def text(form=None):
            form = form or rng.choice(("unit", "factored", "raw"))
            return _join(rng, _element_parts(rng, terms, form))

        if cmd == "mul":
            argv = [cmd, text(), text()]
        elif cmd == "inv":
            argv = [cmd, text()]
        elif cmd == "pow":
            argv = [cmd, text(), str(rng.choice((-1, 1)) * rng.randint(2, 9))]
        elif cmd == "root":
            argv = [cmd, text(), str(rng.choice(ROOT_KS))]
        elif cmd == "scalar-mul":
            argv = [cmd, _rational(rng), text()]
        elif cmd == "decompose":
            argv = [cmd, text("raw")]
        else:
            argv = [cmd, _rational(rng), text("unit")]
        return argv + ["--format", "records"], None

    def call(self, mods, args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = mods.cli.main(args[0])
        return code, buf.getvalue()

    def check(self, spec, args, out):
        code, text = out
        lines = text.splitlines()
        error = args[1]
        ok = len(lines) == 1
        if ok:
            record = json.loads(lines[0])
            keys = ["op", "input", "error" if error else "output"]
            ok = (list(record) == keys and code == (1 if error else 0)
                  and (error is None
                       or record["error"].startswith(error + ":")))
        return ok, _digest(f"{code}|{text}"), {"cli.out_bytes": len(text.encode()),
                            "cli.typed_errors": int(bool(error) and ok)}


# ---------------------------------------------------------------------------
# laws: the randomized law harnesses at small sample counts

N_MAX, K_MAX, APREC = 64, 16, 64

# kind, samples per call, the harness call, checks per sample per law
LAWS = (
    ("vector_space", 6, lambda ax, n, seed:
     ax.check_vector_space_axioms(n, APREC, seed, 9), 1),
    ("torsion", 2, lambda ax, n, seed:
     ax.check_torsion_free(n, N_MAX, APREC, seed), N_MAX),
    ("bijectivity", 2, lambda ax, n, seed:
     ax.check_root_bijectivity(n, K_MAX, APREC, seed), K_MAX),
)


class Laws(Workload):
    """One harness per stratum; item i carries its own harness seed."""

    name = "laws"
    pool_size = len(LAWS) * 16

    def item(self, i):
        if i < 0:
            return 0, 0
        return i % len(LAWS), random.Random(f"laws:{i}").randrange(1 << 31)

    def call(self, mods, args):
        s, harness_seed = args
        _, samples, harness, _ = LAWS[s]
        return harness(mods.axioms, samples, harness_seed)

    def check(self, spec, args, out):
        _, samples, _, per_sample = LAWS[args[0]]
        want = (out.samples - out.skipped) * per_sample
        ok = (out.passed and out.samples == samples and out.seed == args[1]
              and 0 <= out.skipped <= samples
              and all(c.checked == want for c in out.checks))
        digest = _digest(repr((out.kind, out.seed, out.skipped,
                               [(c.name, c.checked, c.failures,
                                 c.first_counterexample)
                                for c in out.checks])))
        kept = sum(c.first_counterexample is not None for c in out.checks)
        return (ok, digest,
                {"axioms.samples": out.samples, "axioms.skipped": out.skipped,
                 "axioms.counterexamples": kept})


# ---------------------------------------------------------------------------
# census: the finite-field scan with the brute-force oracle

CENSUS_YES = (2, 3, 4, 8, 32, 128, 8192, 131072, 524288)
CENSUS_LOG2 = (12, 20)


def _prime_powers(limit):
    """Every prime power <= limit, ascending, by a sieve of the benchmark's
    own."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    out.sort()
    return out


class Census(Workload):
    """q_max log-uniform on [2^12, 2^20]: one item per 1/11 of the range.

    The scans near 2^20 take most of a pass; few items make short passes,
    so each item is timed often.  With an odd count one item sits at the
    median and one at the 90th percentile.
    """

    name = "census"
    pool_size = 11

    def __init__(self, seed: int):
        super().__init__(seed)
        self.prime_powers = _prime_powers(1 << CENSUS_LOG2[1])

    def item(self, i):
        lo, hi = CENSUS_LOG2
        if i < 0:  # the largest scan, so the sieve is grown before timing
            return 1 << hi
        return int(2 ** (lo + (hi - lo) * (i + 0.5) / self.pool_size))

    def call(self, mods, q_max):
        return mods.finfield.prime_power_scan(q_max, include_oracle=True)

    def check(self, spec, q_max, rows):
        agree = all(verdict == oracle for _, verdict, oracle in rows)
        yes = tuple(pp.q for pp, verdict, _ in rows if verdict.is_space)
        qs = [pp.q for pp, _, _ in rows]
        want = self.prime_powers[:bisect_right(self.prime_powers, q_max)]
        ok = (agree and yes == tuple(q for q in CENSUS_YES if q <= q_max)
              and qs == want)
        digest = _digest(repr([(pp.p, pp.n, v.is_space, v.scalar_order, v.dim)
                               for pp, v, _ in rows]))
        return ok, digest, {"finfield.rows": len(rows)}


WORKLOADS = {w.name: w for w in (Dense, Laws, Wire, Census)}
