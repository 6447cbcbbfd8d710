"""The example script prints the pinned headline values."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compute_examples_stdout_is_pinned(capsys):
    spec = importlib.util.spec_from_file_location(
        "compute_examples", ROOT / "scripts" / "compute_examples.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    golden = ROOT / "tests" / "data" / "compute_examples_stdout.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_verify_all_passes_every_check(capsys):
    spec = importlib.util.spec_from_file_location(
        "verify_all", ROOT / "scripts" / "verify_all.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    tally = capsys.readouterr().out.splitlines()[-1]
    assert tally.startswith("-- 51 checks, 0 failed, ")
