"""Command-line surface: element arithmetic, harness runs, field scan.

Every subcommand exits 0 on success and nonzero with a one-line
diagnostic on error; diagnostics never print partial results.  With
--format records each result (or error) is a single JSON line with the
fields op, input and output (or error), in that order, for scripted
consumption.  Harness subcommands exit 1 when a law reports failures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from . import axioms, finfield
from .puiseux import (DEFAULT_DEN_CAP, compose, element_inv, element_mul,
                      element_pow, element_root, element_scalar_mul)
from .textform import (format_element, parse_element, parse_rational,
                       parse_unit)

# the package's typed errors subclass these; the harness argument checks,
# the --aprec reader and too large an index raise them untyped
_ERRORS = (ValueError, OverflowError)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive(default: int) -> dict:
    return {"type": _positive_int, "default": default}


class _Parser(argparse.ArgumentParser):
    # the invalid-choice text of 3.10-3.13.0, which quote every choice;
    # later argparse releases list them bare.  Subparsers inherit it
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


# The command tables name every package function inside a lambda, so
# the name is looked up in this module when the command runs and
# anything that wraps it here sees the call.

# Text positionals are read when the command runs, in declaration
# order, so that a bad value is a typed error; any other positional
# type is an argparse type, checked when the command line is parsed.
_READ = {
    "element": lambda text, cap: parse_element(text, den_cap=cap),
    "unit": lambda text, cap: parse_unit(text, den_cap=cap),
    "rational": lambda text, cap: parse_rational(text),
}
_A = ("a", "element text", "element")

# op: positionals as (name, help, type), and the operation on their
# values and the den cap
_ELEMENT_OPS = {
    "mul": ([_A, ("b", "element text", "element")],
            lambda a, b, cap: element_mul(a, b, den_cap=cap)),
    "inv": ([_A], lambda a, cap: element_inv(a)),
    "pow": ([_A, ("e", "integer exponent", int)],
            lambda a, e, cap: element_pow(a, e)),
    "root": ([_A, ("k", "root index", _positive_int)],
             lambda a, k, cap: element_root(a, k, den_cap=cap)),
    "scalar-mul": ([("r", "rational scalar p/q", "rational"), _A],
                   lambda r, a, cap: element_scalar_mul(r, a, den_cap=cap)),
    # parsing factors the raw series; printing shows x^(val) * unit
    "decompose": ([("a", "raw series text", "element")], lambda a, cap: a),
    "compose": ([("alpha", "rational valuation", "rational"),
                 ("u", "unit text", "unit")],
                lambda alpha, u, cap: compose(alpha, u)),
}

_SAMPLES = ("--samples", _positive(100))
_APREC = ("--aprec", {"default": "64",
                      "help": "working precision, a rational"})
_SEED = ("--seed", {"type": int, "default": 0})

# command: flags in the order of the records input, and the harness run
_HARNESSES = {
    "axioms": ([_SAMPLES, _APREC, _SEED, ("--scalar-bound", _positive(9))],
               lambda a, aprec: axioms.check_vector_space_axioms(
                   a.samples, aprec, a.seed, a.scalar_bound,
                   den_cap=a.den_cap)),
    "torsion": ([_SAMPLES, ("--nmax", _positive(64)), _APREC, _SEED],
                lambda a, aprec: axioms.check_torsion_free(
                    a.samples, a.nmax, aprec, a.seed, den_cap=a.den_cap)),
    "bijectivity": ([_SAMPLES, ("--kmax", _positive(16)), _APREC, _SEED],
                    lambda a, aprec: axioms.check_root_bijectivity(
                        a.samples, a.kmax, aprec, a.seed, den_cap=a.den_cap)),
}


def _input(args):
    # the records echo: an element op lists the text of its parsed
    # positionals, any other command maps its flags to their values
    values = {name: getattr(args, name) for name in args.inputs}
    if args.handler is _cmd_element:
        return [str(v) for v in values.values()]
    return values


def _emit(args, output, key="output") -> None:
    if args.format == "records":
        print(json.dumps({"op": args.op, "input": _input(args), key: output}))
    else:
        print(output)


def _cmd_element(args) -> int:
    values = []
    for name, _, kind in args.positionals:
        value = getattr(args, name)
        values.append(_READ[kind](value, args.den_cap)
                      if kind in _READ else value)
    _emit(args, format_element(args.compute(*values, args.den_cap)))
    return 0


def _report_text(report: axioms.AxiomReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in report.params)
    lines = [f"{report.kind}: seed={report.seed} samples={report.samples} "
             f"aprec={report.aprec} {params}"]
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "ok" if c.passed else "FAIL"
        lines.append(f"  {c.name:<{width}}  {c.checked:>7} checked  "
                     f"{c.failures:>4} failures  {status}")
        if c.first_counterexample is not None:
            lines.append(f"    counterexample: {c.first_counterexample}")
    lines.append(f"  skipped samples: {report.skipped}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _cmd_harness(args) -> int:
    try:
        aprec = Fraction(args.aprec)
    except ZeroDivisionError:
        raise ValueError(
            f"aprec {args.aprec!r} has a zero denominator") from None
    report = args.run(args, aprec)
    if args.format == "records":
        _emit(args, {"skipped": report.skipped, "failures": report.failures,
                     "passed": report.passed,
                     "checks": [{"name": c.name, "checked": c.checked,
                                 "failures": c.failures,
                                 "counterexample": c.first_counterexample}
                                for c in report.checks]})
    else:
        _emit(args, _report_text(report))
    return 0 if report.passed else 1


def _verdict_to_dict(v: finfield.FqVerdict | None) -> dict | None:
    if v is None:
        return None
    return {"is_space": v.is_space, "scalar_order": v.scalar_order,
            "dim": v.dim}


def _verdict_text(v: finfield.FqVerdict) -> str:
    if not v.is_space:
        return "no"
    scalar = "any" if v.scalar_order is None else f"F{v.scalar_order}"
    return f"yes dim={v.dim} over {scalar}"


def _cmd_fq_scan(args) -> int:
    rows = finfield.prime_power_scan(args.max, include_oracle=args.oracle)
    if args.format == "records":
        for pp, verdict, oracle in rows:
            record = {"op": args.op,
                      "input": {"q": pp.q, "p": pp.p, "n": pp.n},
                      "output": {"verdict": _verdict_to_dict(verdict),
                                 "oracle": _verdict_to_dict(oracle)}}
            print(json.dumps(record))
        return 0
    header = f"{'q':>8} {'p':>6} {'n':>3}  {'verdict':<22}"
    if args.oracle:
        header += f" {'oracle':<22}"
    print(header)
    for pp, verdict, oracle in rows:
        line = f"{pp.q:>8} {pp.p:>6} {pp.n:>3}  {_verdict_text(verdict):<22}"
        if args.oracle:
            line += f" {_verdict_text(oracle):<22}"
        print(line.rstrip())
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted both before and after the
    # subcommand.  Every parser shares their one declaration, whose
    # default is suppressed so that a subcommand cannot clobber a value
    # given up front.  `main` supplies the real defaults in the starting
    # namespace; `set_defaults` would write them into the shared
    # declaration.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--den-cap", type=_positive_int,
                        default=argparse.SUPPRESS,
                        help="largest allowed exponent-grid denominator")
    common.add_argument("--format", choices=("text", "records"),
                        default=argparse.SUPPRESS,
                        help="human text or line-delimited JSON records")

    # argparse lays out a generated usage line differently across Python
    # versions (3.13 keeps the command choices and "..." on one line).
    # This is the text 3.10-3.12 generate at 80 columns, fixed for every
    # interpreter and terminal width, so help and usage errors are the
    # same everywhere; a test compares it with argparse's own on 3.10-3.12
    indent = " " * len("usage: f2puiseux ")
    commands = ",".join([*_ELEMENT_OPS, *_HARNESSES, "fq-scan"])
    parser = _Parser(
        prog="f2puiseux", parents=[common],
        usage=f"%(prog)s [-h] [--den-cap DEN_CAP] [--format {{text,records}}]"
              f"\n{indent}{{{commands}}}\n{indent}...",
        description="Exact arithmetic on truncated fractional-exponent "
                    "series over GF(2), with structure checks.")
    sub = parser.add_subparsers(dest="op", required=True, prog="f2puiseux")

    def command(name, handler, arguments, **defaults):
        p = sub.add_parser(name, parents=[common])
        inputs = [p.add_argument(flag, **kwargs).dest
                  for flag, kwargs in arguments]
        p.set_defaults(handler=handler, inputs=inputs, **defaults)
        return p

    for op, (positionals, compute) in _ELEMENT_OPS.items():
        p = command(op, _cmd_element,
                    [(name, {"help": text,
                             "type": None if kind in _READ else kind})
                     for name, text, kind in positionals],
                    positionals=positionals, compute=compute)
        # let negative rationals like -5/3 pass as positional values
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    for kind, (flags, run) in _HARNESSES.items():
        command(kind, _cmd_harness, flags, run=run)
    command("fq-scan", _cmd_fq_scan, [
        ("--max", {**_positive(1024), "help": "largest prime power to scan"}),
        ("--oracle", {"action": "store_true",
                      "help": "also run the brute-force group check"})])
    return parser


def main(argv=None) -> int:
    defaults = argparse.Namespace(den_cap=DEFAULT_DEN_CAP, format="text")
    args = build_parser().parse_args(argv, defaults)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; point stdout
        # at devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
        if args.format == "records":
            _emit(args, error, key="error")
        else:
            print(f"{args.op}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
