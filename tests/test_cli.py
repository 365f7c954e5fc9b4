import json
import subprocess
import sys

import pytest

from f2puiseux.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_records(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "records")
    records = [json.loads(line) for line in out.splitlines()]
    return code, records, err


class TestElementCommands:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "1 + x^(1) + O(x^(4))",
                           "1 + x^(1/2) + O(x^(4))")
        assert code == 0
        assert out.strip() == "1 + x^(1/2) + x^(1) + x^(3/2) + O(x^(4))"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "x^(2) * 1 + x^(1) + O(x^(3))")
        assert code == 0
        assert out.strip() == "x^(-2) * 1 + x^(1) + x^(2) + O(x^(3))"

    def test_pow(self, capsys):
        code, out, _ = run(capsys, "pow", "1 + x^(1) + O(x^(5))", "2")
        assert code == 0
        assert out.strip() == "1 + x^(2) + O(x^(5))"

    def test_root(self, capsys):
        code, out, _ = run(capsys, "root", "1 + x^(1) + O(x^(3))", "3")
        assert code == 0
        assert out.strip() == "1 + x^(1) + x^(2) + O(x^(3))"

    def test_scalar_mul(self, capsys):
        code, out, _ = run(capsys, "scalar-mul", "1/2", "1 + x^(1) + O(x^(2))")
        assert code == 0
        assert out.strip() == "1 + x^(1/2) + O(x^(1))"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose",
                           "x^(1/2) + x^(1) + x^(3/2) + O(x^(2))")
        assert code == 0
        assert out.strip() == "x^(1/2) * 1 + x^(1/2) + x^(1) + O(x^(3/2))"

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "-5/3",
                           "1 + x^(1/3) + O(x^(2))")
        assert code == 0
        assert out.strip() == "x^(-5/3) * 1 + x^(1/3) + O(x^(2))"

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


class TestErrorHandling:
    def test_syntax_error_one_line_no_partial_output(self, capsys):
        code, out, err = run(capsys, "mul", "wat", "1 + O(x^(1))")
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "ElementSyntaxError" in err

    def test_error_record(self, capsys):
        code, records, err = run_records(capsys, "inv",
                                         "x^(1/2) + O(x^(1/4))")
        assert code == 1
        assert err == ""
        (record,) = records
        assert list(record) == ["op", "input", "error"]
        assert record["error"].startswith("NonpositivePrecision")

    def test_den_cap_flag(self, capsys):
        code, _, err = run(capsys, "scalar-mul", "1/64",
                           "1 + x^(1) + O(x^(2))", "--den-cap", "16")
        assert code == 1
        assert "DenominatorOverflow" in err

    def test_global_flags_accepted_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "records", "--den-cap", "16",
                           "scalar-mul", "1/2", "1 + x^(1) + O(x^(2))")
        assert code == 0
        assert json.loads(out)["output"] == "1 + x^(1/2) + O(x^(1))"
        code, _, err = run(capsys, "--den-cap", "16", "scalar-mul", "1/64",
                           "1 + x^(1) + O(x^(2))")
        assert code == 1 and "DenominatorOverflow" in err

    def test_root_index_validated(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "1 + O(x^(1))", "0"])
        assert info.value.code == 2


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


class TestFqScan:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "fq-scan", "--max", "10", "--oracle")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["q", "p", "n", "verdict", "oracle"]
        assert any("yes dim=1 over F7" in line for line in lines)

    def test_records(self, capsys):
        code, records, _ = run_records(capsys, "fq-scan", "--max", "10",
                                       "--oracle")
        assert code == 0
        by_q = {r["input"]["q"]: r for r in records}
        assert set(by_q) == {2, 3, 4, 5, 7, 8, 9}
        assert by_q[8]["output"]["verdict"] == {
            "is_space": True, "scalar_order": 7, "dim": 1}
        assert by_q[8]["output"]["oracle"] == by_q[8]["output"]["verdict"]
        assert by_q[9]["output"]["verdict"]["is_space"] is False

    def test_oracle_omitted_without_flag(self, capsys):
        code, records, _ = run_records(capsys, "fq-scan", "--max", "4")
        assert code == 0
        assert all(r["output"]["oracle"] is None for r in records)

    def test_oversized_scan_is_one_line_diagnostic(self, capsys):
        code, out, err = run(capsys, "fq-scan", "--max", "10000000000")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("fq-scan: OutOfRange: ")

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


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "f2puiseux.cli", "scalar-mul", "2/3",
         "1 + x^(1) + O(x^(3))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 + x^(2) + O(x^(3))"
