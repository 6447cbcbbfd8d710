"""The command line prints exactly the recorded transcript.

``scripts/cli_transcript.py`` runs a fixed list of ``moycalc`` calls in
process and records each call's stdout, stderr and exit code; this test
compares its output, line for line, with ``tests/data/cli_transcript.txt``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_output_matches_the_transcript(tmp_path, monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location(
        "cli_transcript", ROOT / "scripts" / "cli_transcript.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # relative input names: no temporary path reaches the transcript
    monkeypatch.chdir(tmp_path)
    golden = module.TRANSCRIPT.read_text(encoding="utf-8")
    assert module.transcript() == golden
