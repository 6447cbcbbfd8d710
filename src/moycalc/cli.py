"""The ``moycalc`` command line.

Subcommands:

- ``eval-web``   evaluate a web file: the canonical Laurent scalar for a
  closed web, the full matrix printout for an open one
- ``link-poly``  evaluate a closed oriented tangle word to the link
  polynomial
- ``verify``     run a named suite of ``moycalc.verify.SUITES`` within
  its bounds and print one report line per check
- ``rs``         print the insertion and recording tableaux of a
  permutation
- ``hecke``      print a Kazhdan-Lusztig basis element in the standard
  basis
- ``fillings``   enumerate the column-strict fillings of a shape with a
  given content

Exit codes: 0 when the command (and every check, for ``verify``)
succeeds, 1 when a verification check fails, 2 on input errors: a
``ValueError`` from any command is caught once, in ``main``; 141 when
the reader of stdout closed it early (no traceback).  The
enumeration bounds n <= 8 and k <= 4 are enforced when arguments are
parsed, and a rank read from a file header is held to the same bound.
All output is deterministic: polynomial text is canonical and report
lists are emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import verify
from .boxcomb import _bracket_groups, column_strict_fillings
from .reporting import all_passed, render_reports
from .symhecke import Permutation, kl_element, rs_tableaux
from .tangleinv import link_poly, parse_tangle
from .webgraph import WebParseError, evaluate, evaluate_closed, parse_web, slice_chunks

__all__ = [
    "main",
    "build_parser",
    "cmd_eval_web",
    "cmd_link_poly",
    "cmd_verify",
    "cmd_rs",
    "cmd_hecke",
    "cmd_fillings",
]

MAX_N = 8
MAX_K = 4
# 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
EXIT_CLOSED_PIPE = 141


def _bounded(name: str, limit: int) -> Callable[[str], int]:
    """An argparse type for an integer ``name`` between 1 and ``limit``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}"
            )
        if not 1 <= value <= limit:
            raise argparse.ArgumentTypeError(
                f"{name} must be between 1 and {limit}, got {value}"
            )
        return value

    return parse


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_permutation(word: str) -> Permutation:
    pieces = word.split(",") if "," in word else list(word)
    try:
        images = tuple(int(piece) for piece in pieces)
    except ValueError:
        images = ()
    if not images:
        raise ValueError(
            f"permutation must be a one-line word like 2413, got {word!r}"
        )
    if len(images) > MAX_N:
        raise ValueError(
            f"permutation length {len(images)} exceeds the bound n <= {MAX_N}"
        )
    return Permutation(images)


def _parse_composition(text: str, name: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(
            f"{name} must be a comma-separated composition like 2,1, got {text!r}"
        )
    if any(part < 0 for part in parts):
        raise ValueError(f"{name} parts must be nonnegative, got {parts}")
    if sum(parts) > MAX_N:
        raise ValueError(
            f"{name} sums to {sum(parts)}, exceeding the bound n <= {MAX_N}"
        )
    return parts


# ----------------------------------------------------------------------
# computation commands


def _file_command(args: argparse.Namespace, parse: Callable, value: Callable) -> int:
    """Read ``--file``, parse it, hold a header rank to ``MAX_K`` unless
    ``--k`` is given, and print the value of what was parsed."""
    try:
        source = Path(args.file).read_text(encoding="utf-8")
    except OSError as err:
        return _fail(str(err))
    parsed = parse(source)
    if args.k is None and parsed.k is not None and parsed.k > MAX_K:
        _, line, col = next(slice_chunks(source))
        raise WebParseError(
            f"k out of range: need k <= {MAX_K}, got {parsed.k}", line, col
        )
    print(value(parsed))
    return 0


def cmd_eval_web(args: argparse.Namespace) -> int:
    return _file_command(
        args,
        lambda source: parse_web(source, k=args.k),
        lambda web: evaluate(web) if web.bottom or web.top else evaluate_closed(web),
    )


def cmd_link_poly(args: argparse.Namespace) -> int:
    return _file_command(args, parse_tangle, lambda word: link_poly(word, args.k))


# ----------------------------------------------------------------------
# verification


def cmd_verify(args: argparse.Namespace) -> int:
    suite = verify.SUITES[args.suite]
    if suite.max_n is not None and args.n > suite.max_n:
        return _fail(f"{args.suite} suite needs n <= {suite.max_n}")
    if args.k < suite.min_k:
        return _fail(f"{args.suite} suite needs k >= {suite.min_k}")
    reports = suite.run(args.n, args.k)
    print(render_reports(reports, args.format))
    return 0 if all_passed(reports) else 1


# ----------------------------------------------------------------------
# combinatorics printouts


def cmd_rs(args: argparse.Namespace) -> int:
    insertion, recording = rs_tableaux(_parse_permutation(args.permutation))
    print(f"insertion rows: {_bracket_groups(insertion)}")
    print(f"recording rows: {_bracket_groups(recording)}")
    return 0


def cmd_hecke(args: argparse.Namespace) -> int:
    print(kl_element(_parse_permutation(args.permutation)).text())
    return 0


def cmd_fillings(args: argparse.Namespace) -> int:
    mu = _parse_composition(args.mu, "shape")
    nu = _parse_composition(args.nu, "content")
    found = column_strict_fillings(mu, nu)
    for filling in sorted(found, key=lambda f: f.columns):
        print(filling.text())
    print(f"total {len(found)}")
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moycalc",
        description="exact web calculus: evaluation, invariants, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, source, handler, help_text in (
        ("eval-web", "web", cmd_eval_web, "evaluate a web file (scalar or matrix)"),
        (
            "link-poly", "tangle", cmd_link_poly,
            "evaluate a closed tangle word to the invariant",
        ),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--file", required=True, help=f"{source} source file")
        command.add_argument(
            "--k", type=_bounded("k", MAX_K), default=None, help="rank override"
        )
        command.set_defaults(handler=handler)

    check = sub.add_parser("verify", help="run a verification suite")
    check.add_argument("suite", choices=list(verify.SUITES))
    check.add_argument("--k", type=_bounded("k", MAX_K), default=3)
    check.add_argument("--n", type=_bounded("n", MAX_N), default=3)
    check.add_argument("--format", choices=["text", "records"], default="text")
    check.set_defaults(handler=cmd_verify)

    for name, example, handler, help_text in (
        ("rs", "2413", cmd_rs, "insertion/recording tableaux of a permutation"),
        ("hecke", "321", cmd_hecke, "Kazhdan-Lusztig element in the standard basis"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("permutation", help=f"one-line word, e.g. {example}")
        command.set_defaults(handler=handler)

    fillings = sub.add_parser(
        "fillings", help="column-strict fillings of a shape with a content"
    )
    fillings.add_argument("mu", help="shape composition, e.g. 2,1")
    fillings.add_argument("nu", help="content composition, e.g. 1,1,1")
    fillings.set_defaults(handler=cmd_fillings)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as err:
        return _fail(str(err))
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
