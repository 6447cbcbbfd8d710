"""The layer micro-benchmark script prints one parseable record per layer,
with each scaled time beside its raw one."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
        "classes",
        "transport",
        "groth",
        "classtable",
        "laurent",
        "generator",
        "evaluate",
        "algebra",
        "compose",
        "tensor",
    ]
    quartiles = ("q1_ms", "median_ms", "q3_ms")
    for r in records:
        assert set(r) == {"layer", "input", "repeats", *quartiles, *(f"raw_{q}" for q in quartiles)}
        assert r["repeats"] == "1"
        for prefix in ("", "raw_"):
            q1, median, q3 = (float(r[prefix + q]) for q in quartiles)
            assert 0 < q1 <= median <= q3


def test_named_layers_print_only_their_rows(capsys):
    assert load_script().main(["--repeats", "1", "--layer", "evaluate", "--layer", "bar"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["layer=bar"] * 2 + ["layer=evaluate"]


def test_an_unknown_layer_exits_2_and_lists_the_known_ones(capsys):
    with pytest.raises(SystemExit) as info:
        load_script().main(["--layer", "groth", "--layer", "nope"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown layer nope; known: kl_element, bar, sign_action," in captured.err
    assert captured.err.rstrip().endswith("compose, tensor")
