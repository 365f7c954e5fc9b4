"""Run the seeded command lines of tests/argv_fuzz.py under two source
trees and print every one whose outcome differs.

    python tests/differential.py OTHER [--seeds S ...] [--count N]

OTHER is the root of another checkout of this repository, for example
the previous commit checked out with `git worktree add ../parent
HEAD~1`.  Both trees run the same command lines, drawn by this tree's
tests/argv_fuzz.py: `draws(seed, count)` for each seed.  Each tree runs
all of them in one subprocess that imports the package from its own
`src/`, so no tree is imported once per command line.  An outcome is
what `cli.main` returned (or the `SystemExit` code, or the exception it
raised), its stdout and its stderr; every command line whose outcome
differs is printed with both outcomes.  The exit status is 1 when any
differs.  Standard library only; pytest does not collect this file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _run(seed: int, count: int) -> None:
    """In the subprocess: the package's path, then one JSON line per
    command line, [argv, outcome, stdout, stderr]."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    import f2puiseux
    from argv_fuzz import draws
    from f2puiseux.cli import main

    write = sys.stdout.write
    write(json.dumps(f2puiseux.__file__) + "\n")
    for argv in draws(seed, count):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        write(json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n")


def _start(root: Path, seed: int, count: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(TESTS)]))
    return subprocess.Popen(
        [sys.executable, "-c",
         f"import differential; differential._run({seed}, {count})"],
        stdout=subprocess.PIPE, env=env, text=True)


def _outcomes(proc: subprocess.Popen, root: Path) -> list:
    out, _ = proc.communicate()
    if proc.returncode:
        sys.exit(f"the run under {root} exited with {proc.returncode}")
    path, *lines = out.splitlines()
    if not Path(json.loads(path)).resolve().is_relative_to(root / "src"):
        sys.exit(f"the run under {root} imported {json.loads(path)}")
    return [json.loads(line) for line in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path,
                        help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--count", type=int, default=1000,
                        help="command lines per seed")
    args = parser.parse_args(argv)
    roots = (TESTS.parent, args.other.resolve())
    differ = total = 0
    for seed in args.seeds:
        # both trees run at once, one subprocess each
        procs = [_start(root, seed, args.count) for root in roots]
        mine, other = (_outcomes(p, r) for p, r in zip(procs, roots))
        for a, b in zip(mine, other):
            if a != b:
                differ += 1
                print(json.dumps({"argv": a[0], "this": a[1:],
                                  "other": b[1:]}))
        total += len(mine)
    print(f"{differ} of {total} command lines differ "
          f"(seeds {' '.join(map(str, args.seeds))}, {args.count} each)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
