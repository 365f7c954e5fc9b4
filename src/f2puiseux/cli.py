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

from . import axioms, finfield
from .errors import DenominatorOverflow, Indistinguishable, ParseError
from .puiseux import (DEFAULT_DEN_CAP, compose, element_inv, element_mul,
                      element_pow, element_root, element_scalar_mul)
from .textform import (format_element, parse_element, parse_rational,
                       parse_unit)

_ERRORS = (ParseError, DenominatorOverflow, Indistinguishable,
           ValueError, OverflowError)


def _emit(args, payload_input, output) -> None:
    if args.format == "records":
        record = {"op": args.op, "input": payload_input, "output": output}
        print(json.dumps(record))
    elif isinstance(output, str):
        print(output)
    else:
        for line in output:
            print(line)


def _run_element_op(args, compute) -> int:
    result = compute(args)
    _emit(args, args.collect(args), format_element(result))
    return 0


def _cmd_mul(args) -> int:
    return _run_element_op(args, lambda a: element_mul(
        parse_element(a.a, den_cap=a.den_cap),
        parse_element(a.b, den_cap=a.den_cap), den_cap=a.den_cap))


def _cmd_inv(args) -> int:
    return _run_element_op(args, lambda a: element_inv(
        parse_element(a.a, den_cap=a.den_cap)))


def _cmd_pow(args) -> int:
    return _run_element_op(args, lambda a: element_pow(
        parse_element(a.a, den_cap=a.den_cap), a.e))


def _cmd_root(args) -> int:
    return _run_element_op(args, lambda a: element_root(
        parse_element(a.a, den_cap=a.den_cap), a.k, den_cap=a.den_cap))


def _cmd_scalar_mul(args) -> int:
    return _run_element_op(args, lambda a: element_scalar_mul(
        parse_rational(a.r), parse_element(a.a, den_cap=a.den_cap),
        den_cap=a.den_cap))


def _cmd_decompose(args) -> int:
    # parsing factors the raw series; printing shows x^(val) * unit
    return _run_element_op(
        args, lambda a: parse_element(a.a, den_cap=a.den_cap))


def _cmd_compose(args) -> int:
    return _run_element_op(args, lambda a: compose(
        parse_rational(a.alpha), parse_unit(a.u, den_cap=a.den_cap)))


def _check_to_dict(check: axioms.AxiomCheck) -> dict:
    return {"name": check.name, "checked": check.checked,
            "failures": check.failures,
            "counterexample": check.first_counterexample}


def _report_lines(report: axioms.AxiomReport) -> list[str]:
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
    return lines


def _emit_report(args, report: axioms.AxiomReport) -> int:
    if args.format == "records":
        output = {"skipped": report.skipped, "failures": report.failures,
                  "passed": report.passed,
                  "checks": [_check_to_dict(c) for c in report.checks]}
        _emit(args, args.collect(args), output)
    else:
        _emit(args, None, _report_lines(report))
    return 0 if report.passed else 1


def _cmd_axioms(args) -> int:
    report = axioms.check_vector_space_axioms(
        args.samples, Fraction(args.aprec), args.seed, args.scalar_bound,
        den_cap=args.den_cap)
    return _emit_report(args, report)


def _cmd_torsion(args) -> int:
    report = axioms.check_torsion_free(
        args.samples, args.nmax, Fraction(args.aprec), args.seed,
        den_cap=args.den_cap)
    return _emit_report(args, report)


def _cmd_bijectivity(args) -> int:
    report = axioms.check_root_bijectivity(
        args.samples, args.kmax, Fraction(args.aprec), args.seed,
        den_cap=args.den_cap)
    return _emit_report(args, report)


def _verdict_to_dict(v: finfield.FqVerdict | None) -> dict | None:
    if v is None:
        return None
    return {"is_space": v.is_space, "scalar_order": v.scalar_order,
            "dim": v.dim}


def _verdict_text(v: finfield.FqVerdict | None) -> str:
    if v is None:
        return "-"
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_global_flags(parser, suppress):
    # the flags are accepted both before and after the subcommand; the
    # subparser copies must not clobber a value given up front
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--den-cap", type=_positive_int, dest="den_cap",
                        default=default if suppress else DEFAULT_DEN_CAP,
                        help="largest allowed exponent-grid denominator")
    parser.add_argument("--format", choices=("text", "records"),
                        default=default if suppress else "text",
                        help="human text or line-delimited JSON records")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    parser = argparse.ArgumentParser(
        prog="f2puiseux",
        description="Exact arithmetic on truncated fractional-exponent "
                    "series over GF(2), with structure checks.")
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="op", required=True)

    def element_cmd(name, func, collect, *params):
        p = sub.add_parser(name, parents=[common])
        # let negative rationals like -5/3 pass as positional values
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
        for pname, kwargs in params:
            p.add_argument(pname, **kwargs)
        p.set_defaults(handler=func, collect=collect)
        return p

    element_cmd("mul", _cmd_mul, lambda a: [a.a, a.b],
                ("a", {"help": "element text"}),
                ("b", {"help": "element text"}))
    element_cmd("inv", _cmd_inv, lambda a: [a.a],
                ("a", {"help": "element text"}))
    element_cmd("pow", _cmd_pow, lambda a: [a.a, str(a.e)],
                ("a", {"help": "element text"}),
                ("e", {"type": int, "help": "integer exponent"}))
    element_cmd("root", _cmd_root, lambda a: [a.a, str(a.k)],
                ("a", {"help": "element text"}),
                ("k", {"type": _positive_int, "help": "root index"}))
    element_cmd("scalar-mul", _cmd_scalar_mul, lambda a: [a.r, a.a],
                ("r", {"help": "rational scalar p/q"}),
                ("a", {"help": "element text"}))
    element_cmd("decompose", _cmd_decompose, lambda a: [a.a],
                ("a", {"help": "raw series text"}))
    element_cmd("compose", _cmd_compose, lambda a: [a.alpha, a.u],
                ("alpha", {"help": "rational valuation"}),
                ("u", {"help": "unit text"}))

    def harness_params(a):
        return {k: getattr(a, k) for k in a.param_names}

    p = sub.add_parser("axioms", parents=[common])
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--aprec", default="64",
                   help="working precision, a rational")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scalar-bound", type=_positive_int, default=9,
                   dest="scalar_bound")
    p.set_defaults(handler=_cmd_axioms, collect=harness_params,
                   param_names=("samples", "aprec", "seed", "scalar_bound"))

    p = sub.add_parser("torsion", parents=[common])
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--nmax", type=_positive_int, default=64)
    p.add_argument("--aprec", default="64")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_torsion, collect=harness_params,
                   param_names=("samples", "nmax", "aprec", "seed"))

    p = sub.add_parser("bijectivity", parents=[common])
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--kmax", type=_positive_int, default=16)
    p.add_argument("--aprec", default="64")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_bijectivity, collect=harness_params,
                   param_names=("samples", "kmax", "aprec", "seed"))

    p = sub.add_parser("fq-scan", parents=[common])
    p.add_argument("--max", type=_positive_int, default=1024,
                   help="largest prime power to scan")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force group check")
    p.set_defaults(handler=_cmd_fq_scan, collect=harness_params,
                   param_names=("max", "oracle"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        kind = type(exc).__name__
        if args.format == "records":
            record = {"op": args.op, "input": args.collect(args),
                      "error": f"{kind}: {exc}"}
            print(json.dumps(record))
        else:
            print(f"{args.op}: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
