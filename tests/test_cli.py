import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from f2puiseux.cli import build_parser, main

from argv_fuzz import bounded_misses, broken_rule, draws, transcript
from test_axioms import lossy_mul  # noqa: F401  (a fixture)
from test_puiseux import LONG_GRID_ERROR, LONG_GRID_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_records(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "records")
    records = [json.loads(line) for line in out.splitlines()]
    return code, records, err


class TestElementCommands:
    def test_scalar_mul(self, capsys):
        code, out, _ = run(capsys, "scalar-mul", "1/2", "1 + x^(1) + O(x^(2))")
        assert code == 0
        assert out.strip() == "1 + x^(1/2) + O(x^(1))"

    def test_records_mode(self, capsys):
        code, records, _ = run_records(capsys, "mul", "1 + O(x^(2))",
                                       "1 + x^(1) + O(x^(2))")
        assert code == 0
        assert records == [{
            "op": "mul",
            "input": ["1 + O(x^(2))", "1 + x^(1) + O(x^(2))"],
            "output": "1 + x^(1) + O(x^(2))",
        }]
        assert list(records[0]) == ["op", "input", "output"]

    @pytest.mark.parametrize("argv", [
        ["root", "1 + x^(1) + O(x^(300))", str(3 ** 2000)],
        ["pow", "1 + x^(1) + O(x^(3))", str(3 ** 2000)],
        ["pow", "1 + x^(1) + O(x^(3))", str(3 ** 2000), "--format",
         "records"],
        ["scalar-mul", f"{3 ** 2000}/7", "1 + x^(1) + O(x^(3))"],
    ], ids=["root", "pow", "pow-records", "scalar-mul"])
    def test_huge_index_or_exponent_prints_one_line(self, capsys, argv):
        # a unit power depends on p/k modulo a power of 2 near the
        # precision only, so a 3**2000-th power or root is a small one
        code, out, err = run(capsys, *argv)
        assert (code, err, len(out.splitlines())) == (0, "", 1)


class TestErrorHandling:
    def test_long_grid_denominator_is_one_line(self, capsys):
        error = f"DenominatorOverflow: {LONG_GRID_ERROR}"
        assert run(capsys, "decompose", LONG_GRID_TEXT) == (
            1, "", f"decompose: {error}\n")
        code, records, err = run_records(capsys, "decompose", LONG_GRID_TEXT)
        assert (code, err) == (1, "")
        assert records == [{"op": "decompose", "input": [LONG_GRID_TEXT],
                            "error": error}]


class TestHarnessCommands:
    def test_axioms_text(self, capsys):
        code, out, _ = run(capsys, "axioms", "--samples", "20", "--aprec",
                           "32", "--seed", "42", "--scalar-bound", "5")
        assert code == 0
        assert "result: PASS" in out
        assert "scalar-distributes-over-scalar-addition" in out

    def test_axioms_records(self, capsys):
        code, records, _ = run_records(
            capsys, "axioms", "--samples", "10", "--aprec", "16",
            "--seed", "1", "--scalar-bound", "3")
        assert code == 0
        (record,) = records
        assert record["op"] == "axioms"
        assert record["input"]["samples"] == 10
        assert record["output"]["failures"] == 0
        assert len(record["output"]["checks"]) == 6

    def test_torsion(self, capsys):
        code, out, _ = run(capsys, "torsion", "--samples", "10", "--nmax",
                           "16", "--aprec", "32", "--seed", "7")
        assert code == 0
        assert "result: PASS" in out

    def test_bijectivity(self, capsys):
        code, out, _ = run(capsys, "bijectivity", "--samples", "5", "--kmax",
                           "8", "--aprec", "32", "--seed", "3")
        assert code == 0
        assert "result: PASS" in out

    def test_counterexample(self, capsys, lossy_mul):
        # the lossy product of tests/test_axioms.py breaks torsion-freeness
        # at sample 2; the report names it and the run exits 1
        argv = ["torsion", "--samples", "20", "--nmax", "4", "--aprec", "1",
                "--seed", "42"]
        witness = "sample 2: n=4 u=1 + x^(1/6) + x^(2/3) + O(x^(1))"
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert f"\n    counterexample: {witness}\n" in out
        assert out.endswith("\nresult: FAIL\n")
        code, records, _ = run_records(capsys, *argv)
        assert code == 1
        (record,) = records
        assert record["output"]["passed"] is False
        assert record["output"]["checks"][0]["counterexample"] == witness


class TestFqScan:
    def test_closed_stdout_gives_no_traceback(self):
        # the table is far larger than a pipe buffer, so writes go on
        # after the reader has gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "f2puiseux.cli", "fq-scan", "--max",
             "1048576"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().split() == [b"q", b"p", b"n",
                                                  b"verdict"]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode != 0
        assert b"Traceback" not in err

    # sha256 of the stdout of `fq-scan --max 65536 --oracle`, captured
    # from the scan that sorted a row tuple for every prime power found
    # by a loop over all integers
    @pytest.mark.parametrize("fmt, digest", [
        ("text",
         "f2d3d545cecb3ecec35f07da8f73291d730c7f183b0b613b2e04e14648b4adb3"),
        ("records",
         "04097d490d18f4d29ec8e5ed86294e58076c0c6069d2b5da3731ad788403d660"),
    ], ids=["text", "records"])
    def test_full_scan_output_pinned(self, capsys, fmt, digest):
        code, out, err = run(capsys, "fq-scan", "--max", "65536", "--oracle",
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "f2puiseux.cli", "scalar-mul", "2/3",
         "1 + x^(1) + O(x^(3))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 + x^(2) + O(x^(3))"


# ---------------------------------------------------------------------------
# golden transcripts: exit code, stdout and stderr of every subcommand,
# byte for byte.  The expected values live in cli_golden.json; rewrite
# it with `PYTHONPATH=src python tests/test_cli.py` only for a change of
# canonical output that CHANGES.md explains.

GOLDEN = Path(__file__).with_name("cli_golden.json")

U4 = "1 + x^(1) + O(x^(4))"
V4 = "1 + x^(1/2) + O(x^(4))"
F3 = "x^(2) * 1 + x^(1) + O(x^(3))"
U3 = "1 + x^(1) + O(x^(3))"
RAW = "x^(1/2) + x^(1) + x^(3/2) + O(x^(2))"
UNIT3 = "1 + x^(1/3) + O(x^(2))"
R = ("--format", "records")


def _both(*argv):
    return [list(argv), [*argv, *R]]


CASES = [
    *_both("mul", U4, V4),
    *_both("inv", F3),
    *_both("pow", "1 + x^(1) + O(x^(5))", "2"),
    *_both("pow", U4, "+03"),
    *_both("pow", F3, "-2"),
    *_both("root", U3, "3"),
    *_both("root", "1 + x^(2) + O(x^(4))", "+02"),
    *_both("scalar-mul", "2/3", U3),
    *_both("scalar-mul", "-5/3", "x^(3) * 1 + x^(1) + O(x^(3))"),
    *_both("decompose", RAW),
    *_both("compose", "-5/3", UNIT3),
    # global flags before the subcommand, after it, and both ways
    [*R, "mul", U4, V4],
    [*R, "--den-cap", "16", "scalar-mul", "1/2", U3],
    ["--den-cap", "16", "scalar-mul", "1/64", U3],
    ["scalar-mul", "1/64", U3, "--den-cap", "16"],
    ["--den-cap", "16", "scalar-mul", "1/64", U3, "--den-cap", "64"],
    ["--den-cap", "64", "scalar-mul", "1/64", U3, "--den-cap", "16"],
    ["--format", "text", "inv", F3, *R],
    [*R, "inv", F3, "--format", "text"],
    [*R, "--den-cap", "16", "scalar-mul", "1/64", U3],
    # typed errors: one record or one line, never partial output
    *_both("mul", "wat", "1 + O(x^(1))"),
    *_both("mul", "1 + O(x^(1))", "wat"),
    *_both("inv", "x^(1/2) + O(x^(1/4))"),
    *_both("scalar-mul", "1/0", "wat"),
    *_both("scalar-mul", "x", U3),
    *_both("compose", "1/2", RAW),
    *_both("compose", "one", "wat"),
    *_both("root", "wat", "3"),
    *_both("pow", "x^(1) + O(x^(2))", "0"),
    # argparse rejections exit 2 with usage on stderr
    ["root", U3, "0"],
    ["pow", U3, "abc"],
    ["--den-cap", "0", "inv", F3],
    ["--format", "json", "inv", F3],
    ["mul", U3],
    [],
    ["frobnicate"],
    ["--help"],
    ["mul", "--help"],
    ["compose", "--help"],
    ["axioms", "--help"],
    ["fq-scan", "--help"],
    # harnesses, with the records input in its fixed key order
    *_both("axioms", "--samples", "4", "--aprec", "16", "--seed", "1",
           "--scalar-bound", "3"),
    *_both("axioms", "--samples", "3"),
    *_both("axioms", "--scalar-bound", "2", "--seed", "5", "--aprec", "8",
           "--samples", "2"),
    *_both("torsion", "--samples", "4", "--nmax", "16", "--aprec", "32",
           "--seed", "7"),
    *_both("torsion", "--samples", "3"),
    *_both("bijectivity", "--samples", "3", "--kmax", "8", "--aprec", "32",
           "--seed", "3"),
    *_both("bijectivity", "--samples", "2"),
    [*R, "axioms", "--samples", "2", "--den-cap", "64"],
    *_both("axioms", "--samples", "2", "--aprec", "abc"),
    *_both("torsion", "--samples", "2", "--nmax", "1"),
    *_both("bijectivity", "--samples", "2", "--kmax", "1"),
    *_both("torsion", "--samples", "2", "--aprec", "0"),
    ["axioms", "--samples", "0"],
    ["torsion", "--seed", "x"],
    # the field scan
    *_both("fq-scan", "--max", "40"),
    *_both("fq-scan", "--max", "40", "--oracle"),
    *_both("fq-scan", "--max", "1"),
    *_both("fq-scan", "--max", "10000000000"),
    ["fq-scan", "--max", "-3"],
    # a zero-denominator precision is one typed error, not a traceback
    *_both("axioms", "--samples", "2", "--aprec", "1/0"),
    ["torsion", "--samples", "2", "--aprec", "0/0"],
    [*R, "bijectivity", "--samples", "2", "--aprec", " 3/0 "],
    # a precision too long to print is named by its digit count
    *_both("axioms", "--samples", "1", "--aprec", "1e-5000"),
    *_both("torsion", "--samples", "1", "--aprec", "1e-5000"),
    # a square root under a cap it exceeds only before normalization
    *_both("--den-cap", "5", "root", "1 + x^(2/3) + O(x^(4/3))", "2"),
    *_both("--den-cap", "5", "scalar-mul", "1/2", "1 + x^(2/3) + O(x^(4/3))"),
]


@pytest.mark.parametrize(
    "index", range(len(CASES)),
    ids=[f"{i:02d}-{(c or ['none'])[0].lstrip('-')}"
         for i, c in enumerate(CASES)])
def test_golden_transcript(index):
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == len(CASES)
    assert transcript(CASES[index]) == expected[index]


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse 3.13 keeps the command choices and "
                           "'...' on one line")
def test_fixed_usage_is_what_argparse_makes_at_80_columns():
    # the top-level usage is written out so that it does not follow the
    # interpreter's layout; up to 3.12 argparse generates that same text,
    # so a flag or command added without updating it fails here
    parser = build_parser()
    generated = copy.copy(parser)
    generated.usage = None
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parser.format_usage() == generated.format_usage()


def test_argv_fuzz_prints_no_traceback():
    """1000 seeded command lines over all eleven commands, bad tokens,
    zero denominators, den caps 1-12, precisions of 10**300 and 2**1100
    bits, --aprec values of 10**7 and 10**11 and both formats among
    them: each run returns 0 with output, or 1 with one diagnostic or a
    harness's FAIL report, or ends in argparse's exit 2
    (tests/argv_fuzz.py)."""
    bad = [(argv, rule) for argv in draws(1, 1000)
           if (rule := broken_rule(argv))]
    assert bad == []


def test_bounded_inputs_answer_or_refuse_under_a_memory_limit():
    """Each input of argv_fuzz.BOUNDED, run in one child process limited
    to 800 MiB of address space, prints its pinned answer or one line of
    its error: the one-bit powers at a precision of 10**300 answer, and
    the dense powers and harness grids past the power budget are refused
    before the work starts."""
    assert bounded_misses() == []


def test_parser_reuse_leaks_no_state(capsys):
    # the parser is built once per process: flags from one call must
    # not carry over into the next
    scale = ["scalar-mul", "1/64", U3]
    plain = "1 + x^(1/64) + O(x^(3/64))\n"
    code, records, _ = run_records(capsys, "--den-cap", "16", *scale)
    assert code == 1
    assert records[0]["error"].startswith("DenominatorOverflow: ")
    assert run(capsys, *scale) == (0, plain, "")
    code, out, err = run(capsys, *scale, "--den-cap", "16")
    assert (code, out) == (1, "") and "DenominatorOverflow" in err
    assert run(capsys, *scale, "--format", "text") == (0, plain, "")
    code, records, _ = run_records(capsys, "pow", U3, "+03")
    assert code == 0 and records[0]["input"] == [U3, "3"]
    assert run(capsys, "inv", F3) == (
        0, "x^(-2) * 1 + x^(1) + x^(2) + O(x^(3))\n", "")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(c) for c in CASES], indent=1)
                      + "\n")
