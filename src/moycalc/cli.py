"""The ``moycalc`` command line.

Subcommands:

- ``eval-web``   evaluate a web file: the canonical Laurent scalar for a
  closed web, the full matrix printout for an open one
- ``link-poly``  evaluate a closed oriented tangle word to the link
  polynomial
- ``verify``     run a named verification suite (moy, reidemeister,
  bijections, hecke, groth, foam) and print one report line per check
- ``rs``         print the insertion and recording tableaux of a
  permutation
- ``hecke``      print a Kazhdan-Lusztig basis element in the standard
  basis
- ``fillings``   enumerate the column-strict fillings of a shape with a
  given content

Exit codes: 0 when the command (and every check, for ``verify``)
succeeds, 1 when a verification check fails, 2 on input errors.  The
enumeration bounds n <= 8 and k <= 4 are enforced when arguments are
parsed.  All output is deterministic: polynomial text is canonical and
report lists are emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import sys
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Sequence

from .boxcomb import all_compositions, column_strict_fillings, positive_compositions
from .foamalg import verify_foam
from .reporting import Report, all_passed, render_reports
from .symhecke import O_set, Permutation, annihilates, kl_element, rs_tableaux, sign_action
from .tangleinv import (
    TangleParseError,
    compare_theorem13,
    link_poly,
    parse_tangle,
    reidemeister_suite,
    special_generator_webs,
)
from .webgraph import WebParseError, evaluate, evaluate_closed, parse_web, verify_moy

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
# verify suites whose sweep does not finish in minutes above these n
SUITE_MAX_N = {"bijections": 7, "hecke": 5, "groth": 6}


def _bounded_k(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"k must be an integer, got {text!r}")
    if not 1 <= value <= MAX_K:
        raise argparse.ArgumentTypeError(
            f"k must be between 1 and {MAX_K}, got {value}"
        )
    return value


def _bounded_n(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {text!r}")
    if not 1 <= value <= MAX_N:
        raise argparse.ArgumentTypeError(
            f"n must be between 1 and {MAX_N}, got {value}"
        )
    return value


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_permutation(word: str) -> Permutation:
    pieces = word.split(",") if "," in word else list(word)
    try:
        images = tuple(int(piece) for piece in pieces)
    except ValueError:
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


def cmd_eval_web(args: argparse.Namespace) -> int:
    try:
        source = _read_file(args.file)
    except OSError as err:
        return _fail(str(err))
    try:
        web = parse_web(source, k=args.k)
        if web.bottom or web.top:
            print(evaluate(web))
        else:
            print(evaluate_closed(web))
    except WebParseError as err:
        return _fail(str(err))
    except ValueError as err:
        return _fail(str(err))
    return 0


def cmd_link_poly(args: argparse.Namespace) -> int:
    try:
        source = _read_file(args.file)
    except OSError as err:
        return _fail(str(err))
    try:
        word = parse_tangle(source)
        print(link_poly(word, args.k))
    except TangleParseError as err:
        return _fail(str(err))
    except ValueError as err:
        return _fail(str(err))
    return 0


# ----------------------------------------------------------------------
# verification suites


def _suite_bijections(n: int, k: int) -> list[Report]:
    pairs = 0
    counts_match = True
    for mu in positive_compositions(n):
        for nu in positive_compositions(n):
            pairs += 1
            if len(O_set(mu, nu)) != len(column_strict_fillings(mu, nu)):
                counts_match = False
    dimension_match = True
    contents = 0
    for nu in positive_compositions(n):
        contents += 1
        total = sum(
            len(column_strict_fillings(mu, nu))
            for mu in all_compositions(n, k)
        )
        expected = 1
        for part in nu:
            expected *= comb(k, part)
        if total != expected:
            dimension_match = False
    return [
        Report(
            check=f"bijections-coset-filling-n{n}",
            anchor=(
                "minimal double-coset representatives and column-strict "
                "fillings are equinumerous for every shape/content pair"
            ),
            passed=counts_match,
            witness=f"{pairs} (mu, nu) pairs",
        ),
        Report(
            check=f"bijections-dimension-n{n}-k{k}",
            anchor=(
                "column-strict fillings over all shapes count the wedge "
                "space dimension, the product of binomials C(k, part)"
            ),
            passed=dimension_match,
            witness=f"{contents} contents at k={k}",
        ),
    ]


def _suite_hecke(n: int) -> list[Report]:
    group = [
        Permutation(images)
        for images in sorted(permutations(range(1, n + 1)))
    ]
    bar_ok = all(kl_element(w).bar() == kl_element(w) for w in group)
    checked = 0
    annihilator_ok = True
    for mu in positive_compositions(n):
        for w in group:
            if not annihilates(w, mu):
                continue
            checked += 1
            matrix = sign_action(kl_element(w), mu)
            if not matrix.is_zero():
                annihilator_ok = False
    return [
        Report(
            check=f"hecke-kl-bar-invariant-n{n}",
            anchor=(
                "every Kazhdan-Lusztig basis element is fixed by the bar "
                "involution"
            ),
            passed=bar_ok,
            witness=f"{len(group)} elements",
        ),
        Report(
            check=f"hecke-annihilator-n{n}",
            anchor=(
                "when the insertion tableau has more rows than the "
                "composition has nonzero parts, the Kazhdan-Lusztig "
                "element acts as zero on the induced sign module"
            ),
            passed=annihilator_ok,
            witness=f"{checked} (element, composition) pairs",
        ),
    ]


def _suite_groth(n: int, k: int) -> list[Report]:
    webs = 0
    agree = True
    for size in range(1, n + 1):
        for web in special_generator_webs(size, k):
            webs += 1
            if not compare_theorem13(web):
                agree = False
    return [
        Report(
            check=f"groth-three-routes-n{n}-k{k}",
            anchor=(
                "the diagrammatic, translation, and matrix transports "
                "agree on every basis class of every one-generator web"
            ),
            passed=agree,
            witness=f"{webs} webs",
        )
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if args.n > SUITE_MAX_N.get(suite, MAX_N):
        return _fail(f"{suite} suite needs n <= {SUITE_MAX_N[suite]}")
    if suite == "moy":
        if args.k < 2:
            return _fail("moy suite needs k >= 2")
        reports = verify_moy(args.k)
    elif suite == "reidemeister":
        if args.k < 2:
            return _fail("reidemeister suite needs k >= 2")
        reports = reidemeister_suite(args.k)
    elif suite == "bijections":
        reports = _suite_bijections(args.n, args.k)
    elif suite == "hecke":
        reports = _suite_hecke(args.n)
    elif suite == "groth":
        if args.k < 2:
            return _fail("groth suite needs k >= 2")
        reports = _suite_groth(args.n, args.k)
    elif suite == "foam":
        reports = verify_foam()
    else:  # pragma: no cover - argparse restricts choices
        return _fail(f"unknown suite {suite!r}")
    print(render_reports(reports, args.format))
    return 0 if all_passed(reports) else 1


# ----------------------------------------------------------------------
# combinatorics printouts


def cmd_rs(args: argparse.Namespace) -> int:
    try:
        w = _parse_permutation(args.permutation)
    except ValueError as err:
        return _fail(str(err))
    insertion, recording = rs_tableaux(w)

    def rows(tableau: tuple[tuple[int, ...], ...]) -> str:
        return ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in tableau
        )

    print(f"insertion rows: {rows(insertion)}")
    print(f"recording rows: {rows(recording)}")
    return 0


def cmd_hecke(args: argparse.Namespace) -> int:
    try:
        w = _parse_permutation(args.permutation)
    except ValueError as err:
        return _fail(str(err))
    print(kl_element(w).text())
    return 0


def cmd_fillings(args: argparse.Namespace) -> int:
    try:
        mu = _parse_composition(args.mu, "shape")
        nu = _parse_composition(args.nu, "content")
        found = column_strict_fillings(mu, nu)
    except ValueError as err:
        return _fail(str(err))
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

    eval_web = sub.add_parser(
        "eval-web", help="evaluate a web file (scalar or matrix)"
    )
    eval_web.add_argument("--file", required=True, help="web source file")
    eval_web.add_argument(
        "--k", type=_bounded_k, default=None, help="rank override"
    )
    eval_web.set_defaults(handler=cmd_eval_web)

    link = sub.add_parser(
        "link-poly", help="evaluate a closed tangle word to the invariant"
    )
    link.add_argument("--file", required=True, help="tangle source file")
    link.add_argument(
        "--k", type=_bounded_k, default=None, help="rank override"
    )
    link.set_defaults(handler=cmd_link_poly)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "suite",
        choices=["moy", "reidemeister", "bijections", "hecke", "groth", "foam"],
    )
    verify.add_argument("--k", type=_bounded_k, default=3)
    verify.add_argument("--n", type=_bounded_n, default=3)
    verify.add_argument(
        "--format", choices=["text", "records"], default="text"
    )
    verify.set_defaults(handler=cmd_verify)

    rs = sub.add_parser(
        "rs", help="insertion/recording tableaux of a permutation"
    )
    rs.add_argument("permutation", help="one-line word, e.g. 2413")
    rs.set_defaults(handler=cmd_rs)

    hecke = sub.add_parser(
        "hecke", help="Kazhdan-Lusztig element in the standard basis"
    )
    hecke.add_argument("permutation", help="one-line word, e.g. 321")
    hecke.set_defaults(handler=cmd_hecke)

    fillings = sub.add_parser(
        "fillings", help="column-strict fillings of a shape with a content"
    )
    fillings.add_argument("mu", help="shape composition, e.g. 2,1")
    fillings.add_argument("nu", help="content composition, e.g. 1,1,1")
    fillings.set_defaults(handler=cmd_fillings)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
