"""Every public name a moycalc module exports must exist, and the
scripts import only exported names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import moycalc

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(moycalc.__path__, "moycalc.")
    if info.name != "moycalc.__main__"
)


def test_the_modules_are_found():
    assert {"moycalc.cli", "moycalc.tangleinv", "moycalc.weblin"} <= set(MODULES)


@pytest.mark.parametrize("name", ["moycalc"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{name} exports a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert {"compute_examples.py", "verify_all.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_import_only_exported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("moycalc.")
        for alias in node.names
        if alias.name not in importlib.import_module(node.module).__all__
    ]
    assert not private, f"{path.name} imports names outside __all__: {private}"
