"""The verification suites and their bounds: one row per suite.

``SUITES`` maps each suite name to its runner ``(n, k) -> list[Report]``
and its bounds.  Three sweeps live here: ``bijections_suite`` (the
coset/filling bijection), ``hecke_suite`` (Kazhdan-Lusztig annihilation
of sign modules) and ``groth_suite`` (the three-route transport).  The
other three suites stay beside what they check: ``webgraph.verify_moy``,
``tangleinv.reidemeister_suite`` and ``foamalg.verify_foam``.  The
Hecke sweep cannot live in ``symhecke``: it enumerates compositions
with ``boxcomb``, which already imports ``symhecke``.

Each sweep hands its failed cases to ``Report.of_failures``: a
``mu|nu`` pair or a content, a permutation or a ``w|mu`` pair, a web
as its layer and bottom (``merge(1,1@1) on 1,1``).
"""

from __future__ import annotations

from itertools import permutations
from math import comb, prod
from typing import Callable, NamedTuple

from .boxcomb import all_compositions, column_strict_fillings, positive_compositions
from .foamalg import verify_foam
from .qlaurent import _check_int
from .reporting import Report
from .symhecke import O_set, Permutation, annihilates, kl_element, sign_action
from .tangleinv import compare_theorem13, reidemeister_suite, special_generator_webs
from .webgraph import verify_moy

__all__ = ["Suite", "SUITES", "bijections_suite", "hecke_suite", "groth_suite"]


def _parts(composition: tuple[int, ...]) -> str:
    return ",".join(map(str, composition))


def bijections_suite(n: int, k: int) -> list[Report]:
    _check_int(n, "sweep size n", 1)
    shapes = positive_compositions(n)
    all_shapes = all_compositions(n, k)
    return [
        Report.of_failures(
            f"bijections-coset-filling-n{n}",
            "minimal double-coset representatives and column-strict "
            "fillings are equinumerous for every shape/content pair",
            [
                f"{_parts(mu)}|{_parts(nu)}"
                for mu in shapes
                for nu in shapes
                if len(O_set(mu, nu)) != len(column_strict_fillings(mu, nu))
            ],
            f"{len(shapes) ** 2} (mu, nu) pairs",
        ),
        Report.of_failures(
            f"bijections-dimension-n{n}-k{k}",
            "column-strict fillings over all shapes count the wedge "
            "space dimension, the product of binomials C(k, part)",
            [
                _parts(nu)
                for nu in shapes
                if sum(len(column_strict_fillings(mu, nu)) for mu in all_shapes)
                != prod(comb(k, part) for part in nu)
            ],
            f"{len(shapes)} contents at k={k}",
        ),
    ]


def hecke_suite(n: int) -> list[Report]:
    _check_int(n, "sweep size n", 1)
    group = [
        Permutation(images)
        for images in sorted(permutations(range(1, n + 1)))
    ]
    pairs = [
        (w, mu)
        for mu in positive_compositions(n)
        for w in group
        if annihilates(w, mu)
    ]
    return [
        Report.of_failures(
            f"hecke-kl-bar-invariant-n{n}",
            "every Kazhdan-Lusztig basis element is fixed by the bar "
            "involution",
            [str(w) for w in group if kl_element(w).bar() != kl_element(w)],
            f"{len(group)} elements",
        ),
        Report.of_failures(
            f"hecke-annihilator-n{n}",
            "when the insertion tableau has more rows than the "
            "composition has nonzero parts, the Kazhdan-Lusztig "
            "element acts as zero on the induced sign module",
            [
                f"{w}|{_parts(mu)}"
                for w, mu in pairs
                if not sign_action(kl_element(w), mu).is_zero()
            ],
            f"{len(pairs)} (element, composition) pairs",
        ),
    ]


def groth_suite(n: int, k: int) -> list[Report]:
    _check_int(n, "sweep size n", 1)
    webs = [
        web for size in range(1, n + 1) for web in special_generator_webs(size, k)
    ]
    return [
        Report.of_failures(
            f"groth-three-routes-n{n}-k{k}",
            "the diagrammatic, translation, and matrix transports "
            "agree on every basis class of every one-generator web",
            [
                f"{web.layers[0].text()} on {_parts(web.bottom)}"
                for web in webs
                if not compare_theorem13(web)
            ],
            f"{len(webs)} webs",
        )
    ]


class Suite(NamedTuple):
    """How to run one suite and the parameters it accepts.

    ``max_n`` caps a sweep that does not finish in minutes above it
    (``None``: only the CLI's own bound); ``min_k`` is the smallest
    rank the suite's claims are stated for.
    """

    run: Callable[[int, int], list[Report]]
    max_n: int | None = None
    min_k: int = 1


# The runners look their suite up by name when called, so a test can
# replace one with monkeypatch.
SUITES: dict[str, Suite] = {
    "moy": Suite(lambda n, k: verify_moy(k), min_k=2),
    "reidemeister": Suite(lambda n, k: reidemeister_suite(k), min_k=2),
    "bijections": Suite(lambda n, k: bijections_suite(n, k), max_n=7),
    "hecke": Suite(lambda n, k: hecke_suite(n), max_n=5),
    "groth": Suite(lambda n, k: groth_suite(n, k), max_n=7, min_k=2),
    "foam": Suite(lambda n, k: verify_foam()),
}
