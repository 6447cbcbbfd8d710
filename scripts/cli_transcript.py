#!/usr/bin/env python3
"""Record what the ``moycalc`` command line prints for a fixed list of calls.

Each call runs ``moycalc.cli.main`` in process and is recorded as its
command line, then its stdout lines (``>``), its stderr lines (``!``)
and its exit code.  argparse's own exits (``--help``, usage errors) are
caught as ``SystemExit``.  The input files are written, under relative
names, into the current directory, so no directory name is recorded.
``COLUMNS`` is pinned while the calls run, so argparse wraps its help
text the same way on every terminal.

``tests/test_cli_transcript.py`` compares this output with
``tests/data/cli_transcript.txt``.  Regenerate that file from the
repository root after a deliberate change to the printed output:

    PYTHONPATH=src python3 scripts/cli_transcript.py

argparse's help and usage text can differ between Python versions;
the file is recorded on Python 3.11.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

from moycalc.cli import main as cli_main
from moycalc.tangleinv import CORPUS
from moycalc.verify import SUITES
from moycalc.webgraph import circle_web, digon_web, e_web, relation_iii_web, theta_web

TRANSCRIPT = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_transcript.txt"
COMMANDS = ("eval-web", "link-poly", "verify", "rs", "hecke", "fillings")

# stock webs for eval-web, closed (scalars) and open (matrices)
WEBS = {
    "circle-k3.web": circle_web(3).text(),
    "circle-k4.web": circle_web(4).text(),
    "theta-k3.web": theta_web(3).text(),
    "digon-k3.web": digon_web(3, 1, 1).text(),
    "e-k2.web": e_web(2, 3, 1).text(),
    "relation-iii-k3.web": relation_iii_web(3).text(),
}
# inputs that each subcommand must reject with one error line
BAD_FILES = {
    "bad-layer.web": "web k=3 bottom=\nmerge(9,9@1)\n",
    "big-rank.web": "web k=5 bottom=\ncup(1,4@1)\ncap(@1)\n",
    "not-utf8.web": b"\xff\xfe",
    "open.tangle": "tangle k=2 bottom=-\n",
    "bad-layer.tangle": "tangle k=2 bottom=\ncup(-+@1)\nX+(@1)\ncap(@1)\n",
    "big-rank.tangle": "tangle k=5 bottom=\ncup(-+@1)\ncap(@1)\n",
}


def calls() -> list[list[str]]:
    """The recorded argument lists, in order."""
    out = [["--help"], *([name, "--help"] for name in COMMANDS), [], ["frobnicate"]]
    for name in WEBS:
        out.append(["eval-web", "--file", name])
    out += [
        ["eval-web", "--file", "circle-k3.web", "--k", "4"],
        ["eval-web", "--file", "circle-k3.web", "--k", "2"],
        ["eval-web", "--file", "circle-k3.web", "--k", "0"],
        ["eval-web", "--file", "circle-k3.web", "--k", "three"],
        ["eval-web", "--file", "bad-layer.web"],
        ["eval-web", "--file", "big-rank.web"],
        ["eval-web", "--file", "not-utf8.web"],
        ["eval-web", "--file", "missing.web"],
        ["eval-web"],
    ]
    for name in sorted(CORPUS):
        out += (["link-poly", "--file", f"{name}.tangle", "--k", str(k)] for k in (2, 3, 4))
    out += [
        ["link-poly", "--file", "unknot.tangle"],
        ["link-poly", "--file", "unknot.tangle", "--k", "5"],
        ["link-poly", "--file", "open.tangle"],
        ["link-poly", "--file", "bad-layer.tangle"],
        ["link-poly", "--file", "big-rank.tangle"],
        ["link-poly", "--file", "missing.tangle"],
    ]
    for suite in SUITES:
        out += (["verify", suite, "--format", fmt] for fmt in ("text", "records"))
    out += [
        ["verify", "foam", "--n", "9"],
        ["verify", "foam", "--k", "5"],
        ["verify", "hecke", "--n", "6"],
        ["verify", "moy", "--k", "1"],
        ["verify", "nonesuch"],
        ["verify", "foam", "--format", "json"],
    ]
    for word in ("2413", "2,4,1,3", "1", "abc", "123456789", "1,1"):
        out += (["rs", word], ["hecke", word])
    out += [
        ["hecke", "321"],
        ["fillings", "2,1", "1,1,1"],
        ["fillings", "3,2,1", "2,3,1"],
        ["fillings", "0,2,0,1", "1,1,1"],
        ["fillings", "2,1", "2,2"],
        ["fillings", "2,1", "3"],
        ["fillings", "2,-1", "1,0"],
        ["fillings", "9", "9"],
        ["fillings", "a,b", "1"],
    ]
    return out


def _write_inputs() -> None:
    """The input files of ``calls``, in the current directory."""
    files = {**WEBS, **BAD_FILES}
    files.update((f"{name}.tangle", text) for name, text in CORPUS.items())
    for name, content in files.items():
        path = Path(name)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")


def _lines(mark: str, text: str) -> list[str]:
    lines = [f"{mark} {line}" if line else mark for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append(f"{mark}\\ no newline at end")
    return lines


def run(argv: list[str]) -> list[str]:
    """One call's record: command line, stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return [
        f"$ {shlex.join(['moycalc', *argv])}",
        *_lines(">", out.getvalue()),
        *_lines("!", err.getvalue()),
        f"exit {code}",
    ]


def transcript() -> str:
    """The whole transcript, run in the current directory."""
    _write_inputs()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        records = ["\n".join(run(argv)) for argv in calls()]
    return "\n\n".join(records) + "\n"


def main() -> int:
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            text = transcript()
        finally:
            os.chdir(home)
    TRANSCRIPT.write_text(text, encoding="utf-8")
    print(f"wrote {len(calls())} calls to tests/data/{TRANSCRIPT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
