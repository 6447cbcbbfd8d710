"""The verification suites and their bounds: one row per suite.

``SUITES`` maps each suite name to its runner ``(n, k) -> list[Report]``
and its bounds.  Three sweeps live here: ``bijections_suite`` (the
coset/filling bijection), ``hecke_suite`` (Kazhdan-Lusztig annihilation
of sign modules) and ``groth_suite`` (the three-route transport).  The
other three suites stay beside what they check: ``webgraph.verify_moy``,
``tangleinv.reidemeister_suite`` and ``foamalg.verify_foam``.  The
Hecke sweep cannot live in ``symhecke``: it enumerates compositions
with ``boxcomb``, which already imports ``symhecke``.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, prod
from typing import Callable, NamedTuple

from .boxcomb import all_compositions, column_strict_fillings, positive_compositions
from .foamalg import verify_foam
from .reporting import Report
from .symhecke import O_set, Permutation, annihilates, kl_element, sign_action
from .tangleinv import compare_theorem13, reidemeister_suite, special_generator_webs
from .webgraph import verify_moy

__all__ = ["Suite", "SUITES", "bijections_suite", "hecke_suite", "groth_suite"]


def bijections_suite(n: int, k: int) -> list[Report]:
    shapes = positive_compositions(n)
    counts_match = all(
        len(O_set(mu, nu)) == len(column_strict_fillings(mu, nu))
        for mu in shapes
        for nu in shapes
    )
    dimension_match = all(
        sum(len(column_strict_fillings(mu, nu)) for mu in all_compositions(n, k))
        == prod(comb(k, part) for part in nu)
        for nu in shapes
    )
    return [
        Report(
            check=f"bijections-coset-filling-n{n}",
            anchor=(
                "minimal double-coset representatives and column-strict "
                "fillings are equinumerous for every shape/content pair"
            ),
            passed=counts_match,
            witness=f"{len(shapes) ** 2} (mu, nu) pairs",
        ),
        Report(
            check=f"bijections-dimension-n{n}-k{k}",
            anchor=(
                "column-strict fillings over all shapes count the wedge "
                "space dimension, the product of binomials C(k, part)"
            ),
            passed=dimension_match,
            witness=f"{len(shapes)} contents at k={k}",
        ),
    ]


def hecke_suite(n: int) -> list[Report]:
    group = [
        Permutation(images)
        for images in sorted(permutations(range(1, n + 1)))
    ]
    bar_ok = all(kl_element(w).bar() == kl_element(w) for w in group)
    pairs = [
        (w, mu)
        for mu in positive_compositions(n)
        for w in group
        if annihilates(w, mu)
    ]
    annihilator_ok = all(sign_action(kl_element(w), mu).is_zero() for w, mu in pairs)
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
            witness=f"{len(pairs)} (element, composition) pairs",
        ),
    ]


def groth_suite(n: int, k: int) -> list[Report]:
    webs = [
        web for size in range(1, n + 1) for web in special_generator_webs(size, k)
    ]
    return [
        Report(
            check=f"groth-three-routes-n{n}-k{k}",
            anchor=(
                "the diagrammatic, translation, and matrix transports "
                "agree on every basis class of every one-generator web"
            ),
            passed=all(compare_theorem13(web) for web in webs),
            witness=f"{len(webs)} webs",
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
