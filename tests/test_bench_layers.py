"""The layer micro-benchmark script prints one parseable record per layer."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_line_is_one_layer_record(capsys):
    assert load_script().main(["--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [dict(field.split("=", 1) for field in line.split(" ")) for line in lines]
    assert [r["layer"] for r in records] == [
        "kl_element",
        "bar",
        "bar",
        "sign_action",
        "sign_action",
        "sign_action",
        "hecke_mul",
        "column_strict_fillings",
        "bijection",
        "transport",
        "laurent",
        "generator",
        "compose",
        "tensor",
    ]
    for r in records:
        assert set(r) == {"layer", "input", "repeats", "median_ms", "q1_ms", "q3_ms"}
        assert r["repeats"] == "1"
        assert 0 <= float(r["q1_ms"]) <= float(r["median_ms"]) <= float(r["q3_ms"])
