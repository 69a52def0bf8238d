"""Control flow in the library never rests on `assert`, which `python -O`
strips: every status check raises a typed error instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpbound"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and not found, found
