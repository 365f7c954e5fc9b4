"""Benchmark of the f2puiseux package: four workloads, end to end and by layer.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table
    python3 perfbench/run.py --write-expected        # refresh expected.json

One process, one client, a closed loop: each operation starts when the
previous one has returned.  The package is imported from `src/` at the
root of the checkout.  The run makes whole passes over the workload's
fixed pool of operations (see workloads.py), each pass in its own seeded
order, until --seconds have gone by (at least MIN_PASSES passes).  Only
the calls are timed: making an op's inputs, collecting garbage and
checking its output happen between calls.  Every output is checked; ok_frac is the share
of op calls that passed (1 - failed / attempted).

The CPU speed of a shared virtual machine drifts by a quarter and more
over seconds.  So after every op the run also times calibrate(), a
fixed loop of pure Python that uses no package, and the end-to-end
times are scaled to one reference speed: each time is multiplied by
CAL_REF_S over the median of the calibration times taken nearest to it
(for set-up, in its process).  A change to the package moves the scaled times as it
moves the wall-clock ones; the unscaled values go to the result file.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics:

    ops_per_s        passed ops of a pass / the pass's summed call time,
                     the median over passes
    latency_ms.p50   percentiles, interpolated, over the pool items of
    latency_ms.p90   each item's median time across the passes; the
                     sample count is `attempted`, pool size x passes
    ok_frac          1 - failed / attempted
    setup_s          median over SETUP_ROUNDS fresh processes of the time
                     to import the package and run one warm-up op
    peak_rss_mb      ru_maxrss of this process, not scaled

With --trace 1 every op runs once traced (spans.py) and once untraced,
back to back; the line then holds the per-layer metrics, the tracing
overhead measured from those pairs, and the scaling exponents of a size
sweep run afterwards.  A result file with the run's context goes to
perfbench/results/.  The exit code is nonzero if any output fails its
check or differs between the paired calls.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"

MODULES = ("bitops", "series", "puiseux", "textform", "axioms", "finfield",
           "cli")
SETUP_ROUNDS = 7
MIN_PASSES = 3
# scaled times are times at the speed where calibrate() takes this long
CAL_REF_S = 1e-3
CAL_SAMPLES = 5
CAL_WINDOW = 2
SWEEP_BITS = tuple(1 << e for e in range(10, 17))
RUN_LIMIT_S = 170
SWEPT = ("bitops.clmul", "series.inv", "series.kth_root_odd")

clock = time.perf_counter


def fresh_import():
    """Import the package from SRC anew, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "f2puiseux" or n.startswith("f2puiseux.")]:
        del sys.modules[name]
    pkg = importlib.import_module("f2puiseux")
    if Path(pkg.__file__).resolve().parent != SRC / "f2puiseux":
        raise ImportError(f"f2puiseux was imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"f2puiseux.{m}")
                              for m in MODULES})


def warm_up(wl, mods):
    """The untimed warm-up op, which fills the package's lazy caches."""
    args = wl.prepare(mods, -1)
    if not wl.check(-1, args, wl.call(mods, args))[0]:
        raise RuntimeError(f"{wl.name}: the warm-up operation failed its "
                           f"check")


def setup_child(name):
    """In a fresh process: seconds to import the package and warm up,
    and the median calibration time around it."""
    wl = WORKLOADS[name](0)
    cal = [calibrate() for _ in range(CAL_SAMPLES)]
    t0 = clock()
    mods = fresh_import()
    warm_up(wl, mods)
    elapsed = clock() - t0
    cal += [calibrate() for _ in range(CAL_SAMPLES)]
    return {"setup_s": elapsed, "cal_s": statistics.median(cal)}


def setup_times(name, rounds=SETUP_ROUNDS):
    """Set-up measurements of `rounds` fresh processes, one after
    another."""
    times = []
    for _ in range(rounds):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-child", "--workload", name],
            capture_output=True, text=True, timeout=60)
        if proc.returncode:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout))
    return times


def calibrate():
    """Seconds for a fixed slice of pure-Python work that uses no package.

    On a shared virtual machine the CPU speed drifts by a quarter and
    more over seconds; timing this loop next to the package's calls
    measures that drift so that it can be divided out.
    """
    t0 = clock()
    acc, x = 0, 0x9E3779B97F4A7C15
    for i in range(5000):
        acc ^= (x * i) >> (i & 31)
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
    return clock() - t0


def timed_op(wl, mods, spec, args, expected, tracer=None):
    """One op: (spec, latency, passed, digest, accounting)."""
    if tracer is not None:
        tracer.install(mods)
        tracer.begin()
    t0 = clock()
    try:
        out = wl.call(mods, args)
    except Exception as exc:  # an op that raises is a failed op
        out = exc
    dt = clock() - t0
    if tracer is not None:
        tracer.end(dt)
        tracer.uninstall()
    if isinstance(out, Exception):
        return spec, dt, False, repr(out), {}
    try:
        ok, digest, acct = wl.check(spec, args, out)
    except Exception as exc:  # output the check cannot even read
        return spec, dt, False, repr(exc), {}
    return spec, dt, ok and digest == expected[spec], digest, acct


def run_passes(wl, mods, expected, seconds, tracer=None,
               min_passes=MIN_PASSES):
    """Whole passes over the pool until another would end after `seconds`.

    Returns, for each pass, its records and the calibration times taken
    after each op.  With a tracer each op also runs untraced, just
    before or just after the traced call in alternating order; the
    record then holds the traced latency plus, last, the untraced one,
    and is marked failed if the two outputs differ.
    """
    passes = []
    start = clock()
    while True:
        records, cal = [], []
        for spec in wl.order(len(passes)):
            args = wl.prepare(mods, spec)
            # each call starts from a collected heap, so the collector's
            # work inside it depends on the call alone
            gc.collect()
            if tracer is None:
                records.append(timed_op(wl, mods, spec, args, expected))
            else:
                first_traced = len(records) % 2 == 0
                one = timed_op(wl, mods, spec, args, expected,
                               tracer if first_traced else None)
                two = timed_op(wl, mods, spec, args, expected,
                               None if first_traced else tracer)
                rec, plain = (one, two) if first_traced else (two, one)
                if plain[3] != rec[3]:
                    rec = rec[:2] + (False, "tracing changed the output: "
                                     + rec[3]) + rec[4:]
                records.append(rec + (plain[1],))
            del args
            cal.append(calibrate())
        passes.append((records, cal))
        done = len(passes)
        if done >= min_passes and (clock() - start) * (done + 1) / done \
                > seconds:
            return passes


def end_to_end(passes, setup, scaled=True):
    """The end-to-end metrics of an untraced run.

    Scaled, each time is multiplied by CAL_REF_S over the median of the
    calibration times taken nearest to it (CAL_WINDOW on either side of
    an op's own; all of a set-up process's): a time at the machine speed
    where the calibration loop takes CAL_REF_S.
    """
    def scale(cal):
        return CAL_REF_S / statistics.median(cal) if scaled else 1.0

    per_item, rates = {}, []
    for records, cal in passes:
        times = [r[1] * scale(cal[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
                 for k, r in enumerate(records)]
        for r, t in zip(records, times):
            per_item.setdefault(r[0], []).append(t)
        rates.append(sum(r[2] for r in records) / sum(times))
    lat = [statistics.median(t) for t in per_item.values()]
    pct = statistics.quantiles(lat, n=10, method="inclusive")
    attempted = sum(map(len, per_item.values()))
    failed = sum(not r[2] for records, _ in passes for r in records)
    return {
        "ops_per_s": (statistics.median(rates), "op/s"),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms.p90": (pct[8] * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(s["setup_s"] * scale([s["cal_s"]])
                                      for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def scaling_sweep(mods, bits=SWEEP_BITS):
    """Median times of clmul, inv and the cube root on dense operands."""
    rng = random.Random("sweep")
    times = {name: [] for name in SWEPT}
    for n in bits:
        a = rng.getrandbits(n) | 1 | (1 << (n - 1))
        b = rng.getrandbits(n) | 1 | (1 << (n - 1))
        s = mods.series.F2Series(a, n)
        calls = {"bitops.clmul": lambda: mods.bitops.clmul(a, b),
                 "series.inv": lambda: mods.series.inv(s),
                 "series.kth_root_odd": lambda: mods.series.kth_root_odd(s, 3)}
        for name, fn in calls.items():
            reps = []
            for _ in range(5 if n <= 1 << 13 else 3):
                t0 = clock()
                fn()
                reps.append(clock() - t0)
            times[name].append(statistics.median(reps))
    return {name: {"bits": list(bits), "median_s": t,
                   "scaling_exp": loglog_slope(bits, t)}
            for name, t in times.items()}


def per_layer(tracer, records, untraced_wall, sweep, sieve_s):
    """Per-layer metrics of a traced run, per operation where a count."""
    n = tracer.ops
    c = tracer.counters
    acct = {}
    for r in records:
        for k, v in r[4].items():
            acct[k] = acct.get(k, 0) + v
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def span(name, *parts):
        calls, self_s, _ = tracer.stats.get(name, (0, 0.0, 0.0))
        if "calls" in parts:
            put(f"{name}.calls", calls / n, "count/op")
        if "self_ms" in parts:
            put(f"{name}.self_ms", self_s * 1e3 / n, "ms/op")
        return calls

    clmul_calls = span("bitops.clmul", "calls", "self_ms")
    put("bitops.clmul.in_bits", c["bitops.clmul.in_bits"] / n, "bit/op")
    put("bitops.clmul.calls_large", c["bitops.clmul.calls_large"] / n,
        "count/op")
    put("bitops.clmul.sparse_frac",
        c["bitops.clmul.calls_sparse"] / clmul_calls if clmul_calls else 0.0,
        "ratio")
    for name in ("bitops.spread", "bitops.compress", "bitops.support_gcd"):
        span(name, "calls", "self_ms")
    for name in ("series.mul", "series.inv", "series.kth_root_odd",
                 "series.pow_int"):
        span(name, "calls", "self_ms")
    put("series.newton_steps", c["series.newton_steps"] / n,
        "computed/op")
    for name in SWEPT:
        put(f"{name}.scaling_exp", sweep[name]["scaling_exp"], "log-log")
    for name in ("unit_mul", "unit_inv", "unit_root", "unit_pow",
                 "scalar_mul_unit", "normalize"):
        span(f"puiseux.{name}", "calls", "self_ms")
    put("puiseux.den_max", c["puiseux.den_max"], "count")
    span("textform.parse_element", "calls", "self_ms")
    put("textform.parse_element.in_chars",
        c["textform.parse_element.in_chars"] / n, "char/op")
    for name in ("textform.format_element", "textform.format_unit"):
        span(name, "calls", "self_ms")
        put(f"{name}.out_chars", c[f"{name}.out_chars"] / n, "char/op")
    for name in ("vector_space", "torsion", "bijectivity"):
        span(f"axioms.{name}", "self_ms")
    samples = acct.get("axioms.samples", 0)
    rendered = c["axioms.render_calls"]
    put("axioms.samples", samples / n, "count/op")
    put("axioms.skipped", acct.get("axioms.skipped", 0) / n, "count/op")
    put("axioms.render_calls", rendered / n, "count/op")
    put("axioms.render_calls_per_sample",
        rendered / samples if samples else 0.0, "count/sample")
    put("axioms.useful_render_frac",
        acct.get("axioms.counterexamples", 0) / rendered if rendered else 0.0,
        "ratio")
    span("finfield.prime_power_scan", "self_ms")
    put("finfield.rows", acct.get("finfield.rows", 0) / n, "count/op")
    for name in ("elementary_abelian_oracle", "linear_space_verdict",
                 "mersenne_exponent"):
        span(f"finfield.{name}", "calls", "self_ms")
    put("finfield.sieve_setup_ms", sieve_s * 1e3, "ms")
    span("cli.main", "calls", "self_ms")
    put("cli.out_bytes", acct.get("cli.out_bytes", 0) / n, "B/op")
    put("cli.typed_errors", acct.get("cli.typed_errors", 0) / n, "count/op")
    for layer in spans.LAYERS:
        put(f"{layer}.self_ms", tracer.self_seconds(layer) * 1e3 / n, "ms/op")
    put("trace.bench_ms", tracer.bench * 1e3 / n, "ms/op")
    put("trace.wall_ms", tracer.wall * 1e3 / n, "ms/op")
    put("trace.ops", n, "count")
    put("trace.overhead_frac", tracer.wall / untraced_wall - 1, "ratio")
    return out


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args, setup_rounds, passes):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "setup_rounds": setup_rounds, "passes": len(passes),
            "pool_size": len(passes[0][0]), "cal_ref_s": CAL_REF_S}


def run(args, setup_rounds=SETUP_ROUNDS, sweep_bits=SWEEP_BITS,
        min_passes=MIN_PASSES):
    """One workload run; returns (summary line, result-file payload)."""
    wl = WORKLOADS[args.workload](args.seed)
    expected = json.loads(EXPECTED.read_text())[args.workload]
    mods = fresh_import()
    detail = {}
    if not args.trace:
        warm_up(wl, mods)
        setup = setup_times(args.workload, setup_rounds)
        passes = run_passes(wl, mods, expected, args.seconds,
                            min_passes=min_passes)
        metrics = end_to_end(passes, setup)
        detail.update(setup=setup, unscaled={
            k: v for k, (v, _) in end_to_end(passes, setup, False).items()})
    else:
        setup_tracer = spans.Tracer()
        setup_tracer.install(mods, spans.SPANS + (spans.SIEVE_SPAN,))
        setup_tracer.begin()
        t0 = clock()
        warm_up(wl, mods)
        setup_tracer.end(clock() - t0)
        setup_tracer.uninstall()
        sieve_s = setup_tracer.stats.get("finfield.sieve", (0, 0.0))[1]
        tracer = spans.Tracer()
        passes = run_passes(wl, mods, expected, args.seconds, tracer,
                            min_passes=1)
        records = [r for records, _ in passes for r in records]
        sweep = scaling_sweep(mods, sweep_bits)
        metrics = per_layer(tracer, records, sum(r[-1] for r in records),
                            sweep, sieve_s)
        detail.update(spans=tracer.table(), sweep=sweep,
                      setup_spans=setup_tracer.table())
    records = [r for records, _ in passes for r in records]
    failed = [r for r in records if not r[2]]
    summary = {"correct": not failed, "attempted": len(records),
               "failed": len(failed),
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
    detail.update(failures=[{"spec": repr(r[0]), "digest": r[3]}
                            for r in failed[:20]],
                  digests={r[0]: r[3] for r in passes[0][0]},
                  passes=[{"order": [r[0] for r in records],
                           "latency_s": [r[1] for r in records],
                           "calibration_s": cal}
                          for records, cal in passes])
    return summary, dict(context=context(args, setup_rounds, passes),
                         **summary, **detail)


def write_expected():
    """Digests of every pool item of every workload, from this tree."""
    mods = fresh_import()
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0)
        digests = []
        for i in range(wl.pool_size):
            args = wl.prepare(mods, i)
            ok, digest, _ = wl.check(i, args, wl.call(mods, args))
            if not ok:
                raise RuntimeError(f"{name} item {i} fails its checks")
            digests.append(digest)
        out[name] = digests
    EXPECTED.write_text(json.dumps(out, indent=0) + "\n")


def run_all(args):
    """Each workload in its own process; prints one table."""
    bad = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            bad += 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    return 1 if bad else 0


def _out_of_time(signum, frame):
    print("the run exceeded its time limit", file=sys.stderr)
    raise SystemExit(3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "f2puiseux" / "__init__.py").is_file():
        print(f"f2puiseux sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        print(json.dumps(setup_child(args.workload)))
        return 0
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    # a program that hangs must still end the run, without a result line
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(int(max(RUN_LIMIT_S, 4 * args.seconds + 60)))
    summary, result = run(args)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
