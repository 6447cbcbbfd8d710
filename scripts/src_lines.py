#!/usr/bin/env python3
"""Count the lines of each ``src/moycalc`` module by kind.

Prints one ``key=value`` record per module, then one ``module=total``
record, each with ``lines=`` (the file's physical lines) split into
``code=``, ``docstring=``, ``comment=`` and ``blank=``:

    python3 scripts/src_lines.py

A line that holds only whitespace is blank, inside a string too.  Any
other line is a docstring line when a docstring's token covers it, code
when any other token but a comment covers it, and comment otherwise.  A
docstring is a string that is a whole statement of its own and the
first statement of the module or of a ``def`` or ``class`` body.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "moycalc"
KINDS = ("code", "docstring", "comment", "blank")
# tokens that lay out lines but are not code of their own
LAYOUT = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_tokens(tokens: list[tokenize.TokenInfo]) -> set[int]:
    """Indices of the tokens that are docstrings."""
    found = set()
    first = True  # the next statement opens the module or a def/class body
    statement: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NEWLINE:
            if tok.type not in LAYOUT and tok.type != tokenize.COMMENT:
                statement.append(i)
            continue
        words = [tokens[j].string for j in statement]
        if first and len(words) == 1 and tokens[statement[0]].type == tokenize.STRING:
            found.add(statement[0])
        if words[0] == "async":
            words = words[1:]
        first = words[0] in ("def", "class") and words[-1] == ":"
        statement = []
    return found


def count(path: Path) -> dict[str, int]:
    """The lines of one file by kind, and their total."""
    with tokenize.open(path) as handle:
        text = handle.read()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    kinds: dict[int, str] = {}
    docstrings = _docstring_tokens(tokens)
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if i in docstrings:
            kind = "docstring"
        elif tok.type == tokenize.COMMENT:
            kind = "comment"
        else:
            kind = "code"
        for row in range(tok.start[0], tok.end[0] + 1):
            # a docstring or code token outranks a comment on its line
            if kinds.get(row) in (None, "comment"):
                kinds[row] = kind
    lines = text.splitlines()
    counts = {kind: 0 for kind in KINDS}
    for row, line in enumerate(lines, start=1):
        counts[kinds[row] if line.strip() else "blank"] += 1
    return {"lines": len(lines), **counts}


def records() -> list[tuple[str, dict[str, int]]]:
    """(module name, counts) for every module of ``src/moycalc``, in name
    order, then ("total", their sums)."""
    rows = [(path.stem, count(path)) for path in sorted(SRC.glob("*.py"))]
    total = {key: sum(counts[key] for _, counts in rows) for key in ("lines", *KINDS)}
    return rows + [("total", total)]


def main() -> int:
    for module, counts in records():
        fields = " ".join(f"{key}={value}" for key, value in counts.items())
        print(f"module={module} {fields}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
