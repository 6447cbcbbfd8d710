"""Every function, class and method defined under src/, and every
private name a module-level assignment there binds, is referenced
outside its own definition, somewhere in src/, scripts/, tests/ or
perfbench/.  This file is not read for references: the names its cases
spell as strings would otherwise count as uses.

A function or class counts as referenced by a name it is read as, an
attribute of that name, an imported name or a string that spells it
(``__all__``, ``getattr`` names, dotted tracer targets); a method only
by an attribute or such a string; a module-level name like a function.
Dunder names are read by Python itself and are left out.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

GUARD = Path(__file__).resolve()
ROOT = GUARD.parents[1]
FILES = sorted(
    path
    for folder in ("src", "scripts", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if path != GUARD
)
SOURCES = [path for path in FILES if path.is_relative_to(ROOT / "src")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """(names, attributes) the tree refers to.  A string that spells an
    identifier, or dotted identifiers, counts as both."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attributes.update(parts)
    return names, attributes


def _definitions(tree: ast.Module):
    """(definition, name, is a method) for every def and class in the
    tree, and for every private name a module-level assignment binds."""
    for node in ast.walk(tree):
        body = getattr(node, "body", [])
        for child in body if isinstance(body, list) else ():
            if isinstance(child, DEFINITIONS):
                yield child, child.name, isinstance(node, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.startswith("_"):
                        yield node, name.id, False


def _dead(trees: dict[Path, ast.Module], sources: list[Path]) -> list[str]:
    names: Counter = Counter()
    attributes: Counter = Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attributes += a
    dead = []
    for path in sources:
        for node, name, method in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attributes = _references(node)
            outside = attributes[name] - own_attributes[name]
            if not method:
                outside += names[name] - own_names[name]
            if outside <= 0:
                dead.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {name}")
    return dead


def test_the_files_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in FILES}
    assert {"src/moycalc/symhecke.py", "perfbench/tracing.py", "tests/test_cli.py"} <= names


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in FILES}


def test_every_definition_is_referenced():
    assert _dead(_trees(), SOURCES) == []


def test_a_name_spelled_only_in_the_guard_is_reported():
    # "_Key" appears among this file's cases, and nowhere else
    assert GUARD not in FILES
    path = ROOT / "src" / "example.py"
    trees = _trees() | {path: ast.parse('_Key = TypeVar("_Key")\n')}
    assert [entry.split()[-1] for entry in _dead(trees, [path])] == ["_Key"]


@pytest.mark.parametrize(
    "text, dead",
    [
        ("class A:\n    def stale(self):\n        return self.stale()\nstale = A()\n", ["stale"]),
        ("def f():\n    return f()\n", ["f"]),
        ("def f():\n    pass\nclass A:\n    def g(self):\n        return f()\n", ["A", "g"]),
        ("class A:\n    def g(self):\n        pass\nx = getattr(A(), 'g')\n", []),
        ("class A:\n    def __eq__(self, other):\n        pass\nA()\n", []),
        ('_Key = TypeVar("_Key")\n', ["_Key"]),
        ("_A, (_B, c) = 1, (2, 3)\nd: int = _B\n_E: int = 4\n__all__ = []\n", ["_A", "_E"]),
        ("_CACHE = {}\ndef f():\n    return _CACHE\nf()\n", []),
    ],
)
def test_the_check_sees_a_dead_definition(text, dead):
    path = ROOT / "src" / "example.py"
    got = _dead({path: ast.parse(text)}, [path])
    assert [entry.split()[-1] for entry in got] == dead
