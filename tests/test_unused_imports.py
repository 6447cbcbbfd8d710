"""No module under src/, scripts/ or tests/ imports a name it never uses.

A name counts as used when the module reads it, lists it in ``__all__``
or names it inside a string annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its first binding."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads, its ``__all__`` and the names inside
    its string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(text) if isinstance(n, ast.Name)}
    return used


def test_the_files_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in FILES}
    assert {"src/moycalc/symhecke.py", "scripts/verify_all.py", "tests/test_cli.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Sequence\n"
        "import os.path, re\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.sep\n"
    )
    used = _used(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["b", "re"]
