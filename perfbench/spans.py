"""In-process tracing for the benchmark: spans at the layer boundaries.

Each traced function is replaced, on every module attribute its callers
actually look up, by a wrapper that records a span: calls, self time
(span time minus the time covered by child spans) and total time.  Spans
are aggregated per name in memory; nothing inside the package changes.

A span is recorded only while the benchmark has an operation open
(`begin`/`end`), so input construction and output checks done between
operations stay out of the trace.  The operation itself is the root
frame: its self time is the benchmark's own time inside the operation.
Probes read argument and result sizes after a call returns; their cost
falls into the caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _probe_clmul(counters, parent, args, result):
    a, b = args
    la, lb = a.bit_length(), b.bit_length()
    short, short_len = (a, la) if la <= lb else (b, lb)
    counters["bitops.clmul.in_bits"] += la + lb
    if short_len > 512:
        counters["bitops.clmul.calls_large"] += 1
    if short.bit_count() * 8 < short_len:
        counters["bitops.clmul.calls_sparse"] += 1


def _inv_steps(prec):
    # doublings from 1 to prec, as in series._inv
    return (prec - 1).bit_length()


def _probe_inv(counters, parent, args, result):
    counters["series.newton_steps"] += _inv_steps(args[0].prec)


def _probe_root(counters, parent, args, result):
    prec, k = args[0].prec, args[1]
    if k == 1:
        return
    # the precision ladder of series._kth_root_odd; each rung runs an
    # outer step plus a nested inversion at that rung's precision
    m = prec
    while m > 1:
        counters["series.newton_steps"] += 1 + _inv_steps(m)
        m = (m + 1) // 2


def _probe_normalize(counters, parent, args, result):
    den = args[0].den
    if den > counters["puiseux.den_max"]:
        counters["puiseux.den_max"] = den


def _probe_parse(counters, parent, args, result):
    counters["textform.parse_element.in_chars"] += len(args[0])


def _render_probe(name):
    def probe(counters, parent, args, result):
        counters[f"{name}.out_chars"] += len(result)
        if parent.startswith("axioms."):
            counters["axioms.render_calls"] += 1
    return probe


# (span name, [(module, attribute), ...], probe): every lookup site of a
# function, so that calls through a by-name import are traced too.  Spans
# without a metric of their own still keep their time out of the caller's
# layer, so that the per-layer self times add up.
SPANS = (
    ("bitops.clmul", [("series", "clmul")], _probe_clmul),
    ("bitops.spread", [("bitops", "spread"), ("puiseux", "spread")], None),
    ("bitops.compress", [("bitops", "compress"), ("puiseux", "compress")],
     None),
    ("bitops.support_gcd", [("puiseux", "support_gcd")], None),
    ("series.mul", [("series", "mul")], None),
    ("series.inv", [("series", "inv")], _probe_inv),
    ("series.kth_root_odd", [("series", "kth_root_odd")], _probe_root),
    ("series.pow_int", [("series", "pow_int")], None),
    ("puiseux.normalize", [("puiseux.PuiseuxUnit", "__post_init__")],
     _probe_normalize),
    ("puiseux.unit_mul", [("puiseux", "unit_mul")], None),
    ("puiseux.unit_inv", [("puiseux", "unit_inv")], None),
    ("puiseux.unit_root", [("puiseux", "unit_root")], None),
    ("puiseux.unit_pow", [("puiseux", "unit_pow")], None),
    ("puiseux.unit_sqrt", [("puiseux", "unit_sqrt")], None),
    ("puiseux.scalar_mul_unit", [("puiseux", "scalar_mul_unit")], None),
    ("puiseux.units_agree", [("puiseux", "units_agree"),
                             ("axioms", "units_agree")], None),
    ("puiseux.elements_agree", [("puiseux", "elements_agree"),
                                ("axioms", "elements_agree")], None),
    ("puiseux.element_mul", [("puiseux", "element_mul"),
                             ("cli", "element_mul")], None),
    ("puiseux.element_inv", [("puiseux", "element_inv"),
                             ("cli", "element_inv")], None),
    ("puiseux.element_pow", [("puiseux", "element_pow"),
                             ("cli", "element_pow")], None),
    ("puiseux.element_root", [("puiseux", "element_root"),
                              ("cli", "element_root")], None),
    ("puiseux.element_scalar_mul", [("puiseux", "element_scalar_mul"),
                                    ("cli", "element_scalar_mul")], None),
    ("puiseux.compose", [("puiseux", "compose"), ("cli", "compose"),
                         ("textform", "compose")], None),
    ("puiseux.decompose", [("puiseux", "decompose")], None),
    ("puiseux.decompose_raw", [("puiseux", "decompose_raw"),
                               ("textform", "decompose_raw")], None),
    ("textform.parse_element", [("textform", "parse_element"),
                                ("cli", "parse_element")], _probe_parse),
    ("textform.parse_unit", [("textform", "parse_unit"),
                             ("cli", "parse_unit")], None),
    ("textform.parse_rational", [("textform", "parse_rational"),
                                 ("cli", "parse_rational")], None),
    ("textform.format_element", [("textform", "format_element"),
                                 ("cli", "format_element")],
     _render_probe("textform.format_element")),
    ("textform.format_unit", [("textform", "format_unit")],
     _render_probe("textform.format_unit")),
    ("axioms.vector_space", [("axioms", "check_vector_space_axioms")], None),
    ("axioms.torsion", [("axioms", "check_torsion_free")], None),
    ("axioms.bijectivity", [("axioms", "check_root_bijectivity")], None),
    ("finfield.prime_power_scan", [("finfield", "prime_power_scan")], None),
    ("finfield.elementary_abelian_oracle",
     [("finfield", "elementary_abelian_oracle")], None),
    ("finfield.linear_space_verdict", [("finfield", "linear_space_verdict")],
     None),
    ("finfield.mersenne_exponent", [("finfield", "mersenne_exponent")], None),
    ("cli.main", [("cli", "main")], None),
)

# Sieve growth is a lazy cache that the warm-up op fills; it is traced
# only then.  Once the sieve is grown every call returns at once, and
# the scan reaches the grower once per row (PrimePower checks primality
# through is_prime), so a span in the timed run would only add overhead.
SIEVE_SPAN = ("finfield.sieve", [("finfield", "_grow_sieve")], None)

LAYERS = ("bitops", "series", "puiseux", "textform", "axioms", "finfield",
          "cli")


def _resolve(mods, site):
    obj = getattr(mods, site.split(".")[0])
    for part in site.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Aggregated spans for one set of package modules."""

    def __init__(self):
        self.stack = []
        self.stats = {}  # span name -> [calls, self seconds, total seconds]
        self.counters = defaultdict(float)
        self.wall = 0.0
        self.bench = 0.0
        self.ops = 0
        self._patches = []

    def install(self, mods, spans=SPANS):
        for name, sites, probe in spans:
            targets = [(_resolve(mods, mod), attr) for mod, attr in sites]
            targets = [(obj, attr) for obj, attr in targets
                       if hasattr(obj, attr)]
            if not targets:
                continue
            obj, attr = targets[0]
            wrapper = self._wrap(name, getattr(obj, attr), probe)
            for obj, attr in targets:
                self._patches.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, probe):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[1]
                stats[2] += dt
                stack[-1][1] += dt
            if probe is not None:
                probe(counters, stack[-1][0], args, result)
            return result

        return traced

    def begin(self):
        self.stack.append(["bench", 0.0])

    def end(self, elapsed):
        """Close the root frame of an operation the caller timed."""
        frame = self.stack.pop()
        self.ops += 1
        self.wall += elapsed
        self.bench += elapsed - frame[1]

    def self_seconds(self, prefix):
        return sum(s[1] for name, s in self.stats.items()
                   if name.startswith(prefix + "."))

    def table(self):
        """Per-span aggregates in milliseconds, for the result file."""
        return {name: {"calls": s[0], "self_ms": s[1] * 1e3,
                       "total_ms": s[2] * 1e3}
                for name, s in sorted(self.stats.items())}
