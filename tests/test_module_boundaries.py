"""No module of the package reaches into another module's private names.

A name with a leading underscore is private to the module (or the object)
that defines it. Two patterns would cross that line: importing such a name
from a sibling module, and reading such an attribute off anything but
``self`` or ``cls``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaspower"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_accesses(source: str):
    """(line, description) of every private import or foreign private read."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            hits += [(node.lineno, f"imports {alias.name} from .{node.module or ''}")
                     for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and _private(node.attr) and isinstance(node.value, ast.Name)
              and node.value.id not in ("self", "cls")):
            hits.append((node.lineno, f"reads {node.value.id}.{node.attr}"))
    return hits


def test_the_check_finds_both_patterns():
    source = ("from .riemann import _JunctionProblem, solve_interface\n"
              "guess = sim._boundary_guess\n"
              "own = self._cache\n"
              "name = law.__class__\n")
    assert private_accesses(source) == [
        (1, "imports _JunctionProblem from .riemann"),
        (2, "reads sim._boundary_guess"),
    ]


def test_no_module_uses_another_modules_private_names():
    hits = [f"{path.name}:{line}: {what}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, what in private_accesses(path.read_text())]
    assert hits == []
