"""Seeded random command lines over every f2puiseux command, and the
rule that each run of `cli.main` on them must keep.

The Tier-1 suite (tests/test_cli.py) and tests/smoke.py both draw from
`draw_argv`, so they check one definition of the draws; this module
needs only the standard library.  A run keeps the rule when `main`
returns 0 with output and an empty stderr, or returns 1 with one
stderr line (text) or one `error` record (records), or returns 1 with
a harness's own `result: FAIL` report, or argparse exits with code 2.
Anything else, a traceback above all, breaks it.

The draws stay at sizes that need no precision budget: element texts
of a few terms, harness runs of one or two samples at small
precisions, den caps 1-12 and scans up to 200.  Some terms and tails
are written on the grid 1/13, past every drawn den cap, so that texts
reach the route that grows the unit grid term by term; a few of them
still answer, as x^(1/13) + x^(14/13) + O(x^(27/13)) does: its unit
lives on den 1.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from f2puiseux.cli import main

# element text: a valuation factor, terms and a precision marker, each
# drawn from tokens that include bad ones
FACTORS = ("", "", "", "x^(1/3) * ", "x^(-5/2) *", "x^2 * ", "x^(1/0) * ",
           "2 * ", "x^(1) * x^(2) * ")
TERMS = ("1", "1", "x^1", "x^2", "x^(1/2)", "x^(2/3)", "x^(3/4)", "x^(4/6)",
         "x^(-1)", "x^(5/2)", "x^(1/0)", "x^(0/0)", "x", "2 * 1", "", "abc",
         "x^(1/13)", "x^(14/13)", "x^(14/13)")
TAILS = ("O(x^(3))", "O(x^3)", "O(x^(7/2))", "O(x^(10))", "O(x^(0))",
         "O(x^(-1))", "O(x^(1/0))", "O(x)", "", "O(x^(27/13))",
         "O(x^(27/13))")
SEPARATORS = (" + ", "+", " +  ", "\t+ ")
RATIONALS = ("1/2", "-5/3", "2", "0", "-1", "7/4", "+2", "-0/5", " 3 ",
             "1/0", "0/0", "abc", "1.5", "")
INTEGERS = ("0", "1", "-2", "3", "+03", "7", "abc", "1/2")
ROOT_INDICES = ("1", "2", "3", "4", "6", "0", "-1", "x")
APRECS = ("1", "2", "3/2", "4", "8", "16", "64", " 8 ", "1/5", "2.5", "1e1",
          "1/0", "0/0", " 7/0 ", "0", "-3", "abc")
SCAN_MAXES = ("1", "2", "40", "200", "0", "-3", "x")
COMMANDS = ("mul", "inv", "pow", "root", "scalar-mul", "decompose", "compose",
            "axioms", "torsion", "bijectivity", "fq-scan")
# each harness's own bound flag and the largest value drawn for it
HARNESS_BOUNDS = {"axioms": ("--scalar-bound", 3), "torsion": ("--nmax", 8),
                  "bijectivity": ("--kmax", 6)}


def _power(rng, num, den):
    if den == 1 and rng.random() < 0.5:
        return f"x^{num}" if num >= 0 else f"x^({num})"
    return f"x^({num}/{den})"


def element_text(rng: random.Random) -> str:
    """Half the time well-formed text (factored, raw or a unit), else a
    soup of tokens."""
    if rng.random() < 0.5:
        den = rng.choice((1, 2, 3, 4))
        top = rng.randint(1, 4 * den)
        indices = sorted(rng.sample(range(1, top + 1),
                                    rng.randint(0, min(3, top))))
        prec = _power(rng, top + rng.randint(1, den), den)
        form = rng.choice(("unit", "factored", "raw"))
        if form == "raw":
            low = rng.randint(-2 * den, 2 * den)
            terms = [_power(rng, low + j, den) for j in [0, *indices]]
            prec = _power(rng, low + top + 1, den)
        else:
            terms = ["1", *(_power(rng, j, den) for j in indices)]
            if form == "factored":
                terms[0] = f"{_power(rng, rng.randint(-6, 6), 3)} * 1"
        parts = [*terms, f"O({prec})"]
    else:
        parts = [rng.choice(TERMS) for _ in range(rng.randint(0, 4))]
        parts[:1] = [rng.choice(FACTORS) + (parts[0] if parts else "1")]
        parts.append(rng.choice(TAILS))
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice(SEPARATORS) + part
    return text


def _command(rng: random.Random) -> list:
    op = rng.choice(COMMANDS)
    if op == "mul":
        return [op, element_text(rng), element_text(rng)]
    if op in ("inv", "decompose"):
        return [op, element_text(rng)]
    if op in ("pow", "root"):
        pool = INTEGERS if op == "pow" else ROOT_INDICES
        return [op, element_text(rng), rng.choice(pool)]
    if op in ("scalar-mul", "compose"):
        return [op, rng.choice(RATIONALS), element_text(rng)]
    if op == "fq-scan":
        argv, flags = [op], [["--max", rng.choice(SCAN_MAXES)], ["--oracle"]]
    else:  # a harness, which would run 100 samples by default
        argv = [op, "--samples", str(rng.randint(1, 2))]
        bound, top = HARNESS_BOUNDS[op]
        flags = [["--aprec", rng.choice(APRECS)],
                 ["--seed", str(rng.randint(0, 9))],
                 [bound, str(rng.randint(1, top))]]
    for flag in flags:
        if rng.random() < 0.6:
            argv += flag
    return argv


def draw_argv(rng: random.Random) -> list:
    """One command line: a command with its inputs, and the global flags
    --den-cap and --format, each given or not, before or after it."""
    argv = _command(rng)
    for flag in (["--den-cap", str(rng.randint(1, 12))],
                 ["--format", rng.choice(("text", "records"))]):
        place = rng.random()
        if place < 0.3:
            argv = flag + argv
        elif place < 0.6:
            argv = argv + flag
    return argv


def draws(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [draw_argv(rng) for _ in range(count)]


def transcript(argv):
    """One `main` call as {argv, code, out, err}, help text at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


def _records(out: str) -> list | None:
    """The JSON objects of out, one per line, or None if a line is not."""
    try:
        return [json.loads(line) for line in out.splitlines()]
    except ValueError:
        return None


def broken_rule(argv: list) -> str | None:
    """Run `main(argv)`; None when the run kept the rule, else what broke.
    The draws give --format at most once."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code!r})"
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    out, err = out.getvalue(), err.getvalue()
    records = _records(out) if "records" in argv else None
    if code == "SystemExit(2)":
        return None if not out and err else "argparse exit 2 without usage"
    if code == 0:
        if not out or err:
            return "exit 0 without output or with stderr"
        if "records" in argv and (records is None or not all(
                "output" in r for r in records)):
            return "exit 0 with a line that is not an output record"
        return None
    if code != 1:
        return f"exit {code}"
    if "records" in argv:
        if err or records is None or len(records) != 1:
            return "exit 1 without exactly one record"
        output = records[0].get("output")
        if "error" in records[0] or (isinstance(output, dict)
                                     and output.get("passed") is False):
            return None
        return "exit 1 with a record that is neither an error nor a FAIL"
    if out.endswith("\nresult: FAIL\n") and not err:
        return None
    if out or err.count("\n") != 1 or not err.endswith("\n"):
        return "exit 1 without exactly one stderr line"
    return None
