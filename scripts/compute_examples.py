#!/usr/bin/env python3
"""Print the package's headline values.

Evaluates the whole link corpus at ranks 2 and 3, shows a skein
resolution, a Kazhdan-Lusztig element, a translation table, a
Grothendieck transport matrix, and the foam constants.  Output is
deterministic and makes a handy regression snapshot:

    python3 scripts/compute_examples.py > examples.txt
"""

from __future__ import annotations

from moycalc.foamalg import frob_comul, frob_trace, FrobElement, theta_eval
from moycalc.qlaurent import quantum_int
from moycalc.symhecke import FlagList, Permutation, kl_element, translation_flag
from moycalc.tangleinv import (
    CORPUS,
    GrothVector,
    corpus_word,
    grothendieck_map,
    link_poly,
    skein_triple,
    special_generator_webs,
)


def main() -> None:
    print("== link polynomials ==")
    for name in sorted(CORPUS):
        word = corpus_word(name)
        values = ", ".join(f"k={k}: {link_poly(word, k)}" for k in (2, 3))
        print(f"{name:22s} {values}")

    print()
    print("== resolving one trefoil crossing ==")
    plus, minus, zero = skein_triple(corpus_word("trefoil-plus"), 2)
    for label, word in (("X+", plus), ("X-", minus), ("smoothed", zero)):
        print(f"{label:9s} {link_poly(word, 2)}")
    print(f"[2] = {quantum_int(2)}, [2]^2 = {quantum_int(2) ** 2}")

    print()
    print("== Kazhdan-Lusztig element of the longest word in S_3 ==")
    print(kl_element(Permutation((3, 2, 1))).text())

    print()
    print("== digon translation table (wide strand of width 3) ==")
    e = Permutation.identity(3)
    path = [(3,), (1, 2), (3,)]
    for step in range(len(path)):
        flags = translation_flag(FlagList.single(e), path[: step + 1])
        print(f"after {path[step]}: {flags.canonical_text()}")

    print()
    print("== a transport matrix (first splitter web at n=2, k=2) ==")
    web = special_generator_webs(2, 2)[0]
    mapping = grothendieck_map(web, route="curly")
    for mu in ((1, 1), (2, 0), (0, 2)):
        for z in (Permutation.identity(2), Permutation((2, 1))):
            try:
                vec = GrothVector.basis(2, web.bottom, mu, z)
                image = mapping(vec)
            except ValueError:
                continue
            print(f"({mu} | {z}) -> {image.text()}")

    print()
    print("== foam constants ==")
    for power in range(3):
        a = FrobElement.x(power)
        terms = frob_comul(a)
        spread = " + ".join(
            f"({coeff}) x^{i}@x^{j}" for (i, j), coeff in sorted(terms.items())
        )
        print(f"Tr(x^{power}) = {frob_trace(a)}, comul(x^{power}) = {spread or '0'}")
    print(f"theta(0,1,2) = {theta_eval(0, 1, 2)}, theta(2,1,0) = {theta_eval(2, 1, 0)}")


if __name__ == "__main__":
    main()
