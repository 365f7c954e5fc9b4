"""Line census of the Tier-1 run: the lines of src/f2puiseux it never runs.

    python tests/reach.py [PYTEST_ARG ...]

Runs pytest on tests/ (or on the given arguments) in this process under
a `sys.settrace` line tracer that watches only the package's files,
then compares the lines that ran with every line that a code object
compiled from the package's sources can run (`co_lines()`).  Two
places may stay unreached, as only a subprocess runs them: the body of
`cli.main`'s `except BrokenPipeError` and that of cli's `__main__`
guard.  Every other unreached line is printed, and the exit status is
1 when there is one, or when pytest fails.  Standard library only;
pytest does not collect this file.  Traced, the suite takes four to
five times as long as it does untraced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "f2puiseux"


def runnable_lines(path):
    """The line numbers of every instruction compiled from path."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def pinned_lines(path):
    """The lines of cli's BrokenPipe handler and __main__ guard bodies."""
    if path.name != "cli.py":
        return set()
    bodies = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ExceptHandler)
                and getattr(node.type, "id", None) == "BrokenPipeError"):
            bodies += node.body
        elif (isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"):
            bodies += node.body
    return {line for stmt in bodies
            for line in range(stmt.lineno, stmt.end_lineno + 1)}


def traced_run(args):
    """pytest's exit status, and the (file, line) pairs that ran."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached, todo = set(), {}

    def local(frame, event, arg):
        if event == "line":
            left = todo[frame.f_code]
            left.discard(frame.f_lineno)
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            if not left:  # each line of this code object has run
                frame.f_trace_lines = False
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        if code not in todo:
            todo[code] = {line for _, _, line in code.co_lines() if line}
        return local if todo[code] else None

    # the package from this tree, here and in the tests' subprocesses
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import f2puiseux
    if Path(f2puiseux.__file__).resolve().parent != PACKAGE:
        sys.exit(f"reach: the run imported {f2puiseux.__file__}, "
                 f"not the package under {PACKAGE}")
    return status, reached


def main(args):
    status, reached = traced_run(args)
    total, missed, pinned = 0, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = runnable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        pins = pinned_lines(path)
        for line in sorted(lines - {n for f, n in reached if f == str(path)}):
            entry = f"{path.relative_to(ROOT)}:{line}: {source[line - 1]}"
            (pinned if line in pins else missed).append(entry)
    print(f"\nreach: {total - len(missed) - len(pinned)} of {total} runnable "
          f"lines of {PACKAGE.relative_to(ROOT)} ran; unreached:")
    for entry in pinned:
        print(f"  pinned  {entry}")
    for entry in missed:
        print(f"  MISSED  {entry}")
    if status != 0:
        print(f"reach: pytest exited {int(status)}")
    return int(bool(missed) or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
