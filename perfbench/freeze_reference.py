"""Regenerate the frozen reference data under perfbench/reference/.

Run from the root of a checkout of the commit whose outputs and costs
should be frozen:

    python3 perfbench/freeze_reference.py

It writes two files:

- ``corpus_link_poly.json``: the exact stdout of ``moycalc link-poly``
  for every ``CORPUS`` word at k=2,3,4.  The benchmark compares CLI
  output byte for byte against it.
- ``costs.json``: the single-call seconds of every ``sign_action``
  input (all (w, mu) with n=4,5, caches warm), of every
  ``compare_theorem13`` input (one-generator webs, n<=5, k=2..4), and
  the faster of two runs of every cosets bijection item (all
  composition pairs with n=4,5,6) and dimension item.  The benchmark
  only uses these to sort inputs into cost strata, so each round of a
  run draws the same mix of cheap and dear inputs.

The run takes several minutes: three k=4 corpus words alone take
10-20 s each on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from moycalc import cli, symhecke, tangleinv  # noqa: E402
from moycalc.boxcomb import positive_compositions  # noqa: E402
from workloads import (  # noqa: E402
    BIJECTION_MIX,
    DIMENSION_MIX,
    Cosets,
    composition_text,
    compositions,
)

REFERENCE = Path(__file__).resolve().parent / "reference"


def corpus_outputs() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in tangleinv.CORPUS.items():
            path = Path(tmp) / f"{name}.tangle"
            path.write_text(text + "\n", encoding="utf-8")
            for k in (2, 3, 4):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["link-poly", "--file", str(path), "--k", str(k)])
                if code != 0:
                    raise SystemExit(f"link-poly failed on {name} at k={k}")
                out[f"{name}@k{k}"] = buf.getvalue()
    return out


def sign_costs() -> dict[str, float]:
    costs = {}
    for n in (4, 5):
        group = [symhecke.Permutation(p) for p in sorted(permutations(range(1, n + 1)))]
        comps = positive_compositions(n)
        for w in group:
            symhecke.kl_element(w)
        for mu in comps:
            symhecke.sign_action(symhecke.kl_element(group[0]), mu)
        for w in group:
            for mu in comps:
                start = time.perf_counter()
                symhecke.sign_action(symhecke.kl_element(w), mu)
                key = f"{w.one_line_text()}|{','.join(map(str, mu))}"
                costs[key] = time.perf_counter() - start
    return costs


def groth_costs() -> dict[str, float]:
    costs = {}
    for k in (2, 3, 4):
        for n in range(1, 6):
            for web in tangleinv.special_generator_webs(n, k):
                start = time.perf_counter()
                tangleinv.compare_theorem13(web)
                costs[web.text()] = time.perf_counter() - start
    return costs


def _best_of_two(run) -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def bijection_costs() -> dict[str, float]:
    return {
        f"{composition_text(mu)}|{composition_text(nu)}": _best_of_two(
            Cosets._bijection_item(mu, nu).run
        )
        for n, _ in BIJECTION_MIX
        for mu in compositions(n)
        for nu in compositions(n)
    }


def dimension_costs() -> dict[str, float]:
    return {
        f"{k}|{composition_text(nu)}": _best_of_two(Cosets._dimension_item(k, nu).run)
        for k, n in DIMENSION_MIX
        for nu in compositions(n, k)
    }


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    corpus = corpus_outputs()
    (REFERENCE / "corpus_link_poly.json").write_text(
        json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    costs = {
        "sign_action": sign_costs(),
        "compare_theorem13": groth_costs(),
        "bijection": bijection_costs(),
        "dimension": dimension_costs(),
    }
    rounded = {
        part: {key: round(sec, 6) for key, sec in table.items()}
        for part, table in costs.items()
    }
    (REFERENCE / "costs.json").write_text(
        json.dumps(rounded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
