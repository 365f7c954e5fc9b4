"""Every name a package module imports is used there or exported.

No linter is a dependency of the project, so this reads each module's
syntax tree with the standard library's ast.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "f2puiseux"


def unused_imports(source: str) -> list[str]:
    """The names source imports, neither read anywhere in it nor listed
    in its __all__; a __future__ import binds no name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import count, islice as cut, repeat\n"
              "from math import gcd\n"
              "__all__ = ['gcd']\n"
              "print(cut(repeat(1), 2))\n")
    assert unused_imports(source) == ["count", "os"]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
