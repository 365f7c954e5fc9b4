"""The demos and README's command-line examples still run."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from f2puiseux.cli import main

ROOT = Path(__file__).resolve().parents[1]
ELEMENT_OPS = ("mul", "inv", "pow", "root", "scalar-mul", "decompose",
               "compose")


def readme_commands():
    block = (ROOT / "README.md").read_text().split("## Command line")[1]
    block = block.split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("f2puiseux ")]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_element_commands_run(capsys):
    commands = [c for c in readme_commands() if c[0] in ELEMENT_OPS]
    assert {c[0] for c in commands} == set(ELEMENT_OPS)
    for argv in commands:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out.strip() and not captured.err, argv
