"""Every public name a moycalc module exports must exist."""

from __future__ import annotations

import importlib
import pkgutil

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
