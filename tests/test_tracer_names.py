"""The benchmark tracer patches program functions by name: every name it
patches must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from moycalc.qlaurent import LaurentPoly
from moycalc.weblin import QMatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py`` loaded read-only: no bytecode is written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_function_resolves(tracing):
    names = list(tracing.FUNCTION_SPANS)
    names += [(module, name) for module, name, _ in tracing.FUNCTION_LEAVES]
    names += [("weblin", name) for name in tracing.GENERATORS]
    names.append(("tangleinv", "grothendieck_map"))
    missing = [
        f"moycalc.{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"moycalc.{module}"), name, None))
    ]
    assert not missing, f"the tracer patches names that are gone: {missing}"


def test_every_patched_method_is_defined_on_its_class(tracing):
    # the tracer reads the class's own __dict__, so an inherited method
    # would not do
    wanted = [(LaurentPoly, attr) for attr, _ in tracing.LAURENT_LEAVES]
    wanted += [(LaurentPoly, "__bool__"), (QMatrix, "__matmul__"), (QMatrix, "__eq__")]
    missing = [f"{cls.__name__}.{attr}" for cls, attr in wanted if attr not in cls.__dict__]
    assert not missing, f"the tracer patches methods that are gone: {missing}"
