"""The scripts print their pinned values, and the line counter splits every line."""

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


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_splits_every_line_of_every_module(capsys):
    module = _script("src_lines")
    files = sorted((ROOT / "src" / "moycalc").glob("*.py"))
    rows = module.records()
    assert [name for name, _ in rows] == [path.stem for path in files] + ["total"]
    for name, counts in rows:
        assert sum(counts[kind] for kind in module.KINDS) == counts["lines"], name
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert rows[-1][1]["lines"] == total
    assert module.main() == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith(f"module=total lines={total} code=")
    assert len(printed) == len(rows)


def test_src_lines_kinds_of_a_small_module(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring.\n'
        "\n"
        'Second paragraph."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Function docstring."""\n'
        '    text = """not a\n'
        '    docstring"""\n'
        "    return x\n",
        encoding="utf-8",
    )
    counts = _script("src_lines").count(source)
    assert counts == {"lines": 10, "code": 4, "docstring": 3, "comment": 1, "blank": 2}
