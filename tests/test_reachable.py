"""The package ships what its commands run: every module-level function,
class and constant in src/lpbound is reachable, through the names the code
references, from the console script, from the module-level statements, or
from a name that perfbench imports. Code that only tests call lives beside
the tests (lp_oracles.py), not in the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lpbound"


def _console_scripts():
    """(module, function) of each lpbound entry in [project.scripts]."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return re.findall(r'^\s*[\w-]+\s*=\s*"lpbound\.(\w+):(\w+)"', table, re.M)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _scan():
    """(definitions, references, aliases, roots) over the package's modules.

    A definition is a module-level def, class or assignment to a name. Its
    references are the names read anywhere in it, decorators, defaults and
    annotations included; a class's references are those of its whole body.
    Every other module-level statement (an assignment to a dunder name, an
    `if __name__ == ...` block, ...) is a root. Imports are aliases, not uses.
    """
    defs, refs, aliases, roots = set(), {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                aliases.update({(mod, a.asname or a.name): (stmt.module, a.name)
                                for a in stmt.names})
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue  # the standard library and numpy
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            used = {(mod, n.id) for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if names and not any(_is_dunder(n) for n in names):
                for n in names:
                    defs.add((mod, n))
                    refs[(mod, n)] = used
            else:
                roots |= used
    return defs, refs, aliases, roots


def _resolve(key, defs, aliases):
    """The definition a reference names, following imports; None when the
    name is a local, a builtin or from outside the package."""
    while key not in defs and key in aliases:
        key = aliases[key]
    return key if key in defs else None


def _perfbench_imports():
    """(module, name) of every name perfbench's own code imports from lpbound."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lpbound"):
                mod = node.module.partition(".")[2] or "__init__"
                found.extend((mod, a.name) for a in node.names)
    return found


def unreachable():
    defs, refs, aliases, roots = _scan()
    frontier = [*_console_scripts(), *_perfbench_imports(), *roots]
    reached = set()
    while frontier:
        key = _resolve(frontier.pop(), defs, aliases)
        if key is not None and key not in reached:
            reached.add(key)
            frontier.extend(refs[key])
    return sorted(f"{mod}.{name}" for mod, name in defs - reached)


def test_every_module_level_name_is_reachable():
    found = unreachable()
    assert not found, f"not reachable from any command or from perfbench: {found}"
