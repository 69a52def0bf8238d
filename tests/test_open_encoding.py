"""Every file the library opens is decoded as UTF-8, whatever the locale:
each open() call passes encoding=."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpbound"


def test_every_open_call_names_its_encoding():
    calls = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    ]
    missing = [f"{name}:{node.lineno}" for name, node in calls
               if not any(kw.arg == "encoding" for kw in node.keywords)]
    assert calls and not missing, missing
