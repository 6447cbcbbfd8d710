#!/usr/bin/env python3
"""Time the arithmetic, web, Hecke, box and transport layers one call at a time.

Prints one ``key=value`` record per layer and input: the number of
repeats and the median and quartiles of their times.  The inputs are
fixed, so two checkouts can be compared on one machine:

    python3 scripts/bench_layers.py --repeats 7

``--layer NAME`` (repeatable) prints only the rows of the named layers,
for example ``--layer groth --layer transport --layer evaluate``; every
layer's input is still set up, but only the named rows are timed.

Times are in reference milliseconds, as in ``perfbench/run.py``: a
shared machine's speed jumps by a factor near two several times a
second, so each row runs under a ``perfbench/speed.py`` log that times a
fixed probe every 10 ms, and each call's wall time is weighted by the
speed of the stretch it ran in.  The raw wall-clock quartiles, probes
left out, are printed beside the scaled ones (``raw_*_ms``).

``kl_element`` is timed cold, over all of S_5, in a fresh interpreter
per repeat (its cache lives for the process) that keeps its own speed
log; every other layer is timed warm, with its Kazhdan-Lusztig input
computed beforehand.  The transport layer is ``compare_theorem13`` (the
three routes over every basis class) on one fixed k=4 merge web on five
strands, run once before it is timed.  The groth layer is
``compare_theorem13`` over the 160 one-generator webs with n <= 5 and
k = 2..4 (the cosets workload's webs), also run once before it is
timed, so every boundary's class table is built.  The classtable
layer is the one-time cost that those warm rows leave out:
``grothendieck_map`` of a k=4 merge web on six 1-strands, which builds
the class table of its bottom (1,1,1,1,1,1), in a fresh interpreter per
repeat whose weight classes (``O_lists``) are listed before the clock
starts.  The bijection layer sends every class of one fixed (mu, nu)
at n=6 through psi, phi, phi_inverse and psi_inverse, also run once
before it is timed.  The
classes layer lists the classes of every weight with four parts over
the content (1,1,1,1,1,1) in one ``O_lists`` pass, warm: the bijection
row has built that content's masks.  The web-side rows are warm too: the laurent layer
builds, multiplies and adds every ordered pair of the quantum integers
[1]..[12]; the generator layer applies one k=4 merge window to every
basis vector of six 1-labelled strands; the evaluate layer evaluates
the one-layer web of that merge, whose first layer is read off its
window map; the algebra layer forms E_1·E_2·E_1 - E_1 on three k=4
strands, the left side of the braid relation in the tangle-moves
workload's MOY items; the compose layer multiplies a split matrix by a merge
matrix on five strands; the tensor layer puts E_1 on three k=4 strands
beside the k=4 positive crossing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from functools import partial
from operator import matmul
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from moycalc.boxcomb import (
    all_compositions,
    column_strict_fillings,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
)
from moycalc.qlaurent import ONE, ZERO, LaurentPoly, quantum_int
from moycalc.symhecke import (
    O_lists,
    O_set,
    Permutation,
    hecke_mul,
    kl_element,
    sign_action,
)
from moycalc.tangleinv import compare_theorem13, special_generator_webs
from moycalc.webgraph import Layer, Web, evaluate
from moycalc.weblin import (
    QMatrix,
    TensorBasis,
    apply_window,
    crossing_matrix,
    hecke_E,
    local_map,
    merge_matrix,
    split_matrix,
)

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "perfbench"))
import speed  # noqa: E402  (perfbench/speed.py, the benchmark's speed log)

COLD_KL_S5 = """
import itertools, json
from bench_layers import timed
from moycalc.symhecke import Permutation, kl_element
group = [Permutation(p) for p in itertools.permutations(range(1, 6))]
print(json.dumps(timed(lambda: [kl_element(w) for w in group])))
"""

COLD_CLASS_TABLE = """
import json
from bench_layers import timed
from moycalc.boxcomb import all_compositions
from moycalc.symhecke import O_lists
from moycalc.tangleinv import grothendieck_map
from moycalc.webgraph import Layer, Web
O_lists(all_compositions(6, 4), (1,) * 6)
web = Web(4, (1,) * 6, (Layer("merge", 1, 1, 1),))
print(json.dumps(timed(grothendieck_map, web)))
"""


def timed(call: Callable[..., object], *args: object) -> tuple[float, float]:
    """(raw, scaled) seconds of one call, under a speed log of its own;
    the raw wall time leaves out the probes that fell inside the call."""
    log = speed.SpeedLog()
    log.start()
    start = perf_counter()
    call(*args)
    end = perf_counter()
    log.stop()
    inside = sum(span for at, span in zip(log.starts, log.spans) if start <= at < end)
    return end - start - inside, log.scaled(start, end)


def cold(snippet: str) -> tuple[float, float]:
    """(raw, scaled) seconds that a snippet prints from a fresh interpreter."""
    path = os.pathsep.join([str(SCRIPTS), *(p for p in sys.path if p)])
    done = subprocess.run(
        [sys.executable, "-c", snippet],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return tuple(json.loads(done.stdout))


def bijections(
    classes: list[Permutation], mu: tuple[int, ...], nu: tuple[int, ...]
) -> None:
    """psi, phi, phi_inverse and psi_inverse on every class, in turn."""
    k = len(mu)
    for z in classes:
        psi_inverse(phi_inverse(phi(psi(z, mu, nu), k), k), mu, nu)


def groth_sweep(webs: list[Web]) -> None:
    """``compare_theorem13`` on every web, in turn."""
    for web in webs:
        compare_theorem13(web)


def laurent_pairs(polys: list[LaurentPoly]) -> None:
    """For each ordered pair (a, b): a rebuilt from its terms, times b,
    added to a running total."""
    total = ZERO
    for a in polys:
        for b in polys:
            total = total + LaurentPoly(dict(a.terms)) * b


def braid_side(e1: QMatrix, e2: QMatrix) -> QMatrix:
    """E1·E2·E1 - E1, the left side of the braid relation on three strands."""
    return e1 @ e2 @ e1 - e1


def cases() -> list[tuple[str, str, Callable[[], tuple[float, float]]]]:
    """(layer, input, one repeat returning its raw and scaled seconds)."""
    out: list[tuple[str, str, Callable[[], tuple[float, float]]]] = [
        ("kl_element", "S5-cold", partial(cold, COLD_KL_S5))
    ]
    for text in ("54321", "654321"):
        element = kl_element(Permutation.from_one_line(text))
        out.append(("bar", text, partial(timed, element.bar)))
    sign_inputs = (("4231", (1, 2, 1)), ("53412", (2, 2, 1)), ("52413", (1,) * 5))
    for text, mu in sign_inputs:
        element = kl_element(Permutation.from_one_line(text))
        label = f"{text}|{','.join(map(str, mu))}"
        out.append(("sign_action", label, partial(timed, sign_action, element, mu)))
    left, right = (kl_element(Permutation.from_one_line(t)) for t in ("53412", "45312"))
    out.append(("hecke_mul", "53412*45312", partial(timed, hecke_mul, left, right)))
    ones = (1,) * 7
    fill = partial(timed, column_strict_fillings, ones, ones)
    out.append(("column_strict_fillings", "1,1,1,1,1,1,1|1,1,1,1,1,1,1", fill))
    mu, nu = (2, 2, 1, 1), (1,) * 6
    classes = sorted(O_set(mu, nu), key=lambda w: w.images)
    bijections(classes, mu, nu)
    round_trip = partial(timed, bijections, classes, mu, nu)
    out.append(("bijection", "2,2,1,1|1,1,1,1,1,1", round_trip))
    listing = partial(timed, O_lists, all_compositions(6, 4), (1,) * 6)
    out.append(("classes", "k4|1,1,1,1,1,1", listing))
    web = Web(4, (1,) * 5, (Layer("merge", 2, 1, 1),))
    compare_theorem13(web)
    transport = partial(timed, compare_theorem13, web)
    out.append(("transport", "k4|1,1,1,1,1|merge(1,1@2)", transport))
    webs = [
        web for k in (2, 3, 4) for n in range(1, 6) for web in special_generator_webs(n, k)
    ]
    groth_sweep(webs)
    out.append(("groth", "k2-4|n1-5|160-webs", partial(timed, groth_sweep, webs)))
    out.append(("classtable", "k4|1,1,1,1,1,1", partial(cold, COLD_CLASS_TABLE)))
    polys = [quantum_int(m) for m in range(1, 13)]
    out.append(("laurent", "[1]..[12]", partial(timed, laurent_pairs, polys)))
    state = [{key: ONE} for key in TensorBasis(4, (1,) * 6)]
    apply = partial(timed, apply_window, local_map("merge", 4, 1, 1), 3, 2, state)
    out.append(("generator", "k4|1,1,1,1,1,1|merge(1,1@3)", apply))
    one_layer = Web(4, (1,) * 6, (Layer("merge", 3, 1, 1),))
    out.append(("evaluate", "k4|1,1,1,1,1,1|merge(1,1@3)", partial(timed, evaluate, one_layer)))
    e1, e2 = hecke_E(1, 3, 4), hecke_E(2, 3, 4)
    out.append(("algebra", "k4|1,1,1|E1*E2*E1-E1", partial(timed, braid_side, e1, e2)))
    merge = merge_matrix(4, (1,) * 5, 2)
    split = split_matrix(4, (1, 2, 1, 1), 2, 1, 1)
    compose = partial(timed, matmul, split, merge)
    out.append(("compose", "k4|1,1,1,1,1|split(1,1@2)*merge(1,1@2)", compose))
    cross = crossing_matrix("+", 4)
    out.append(("tensor", "k4|E1(1,1,1)x(cross+)", partial(timed, e1.tensor, cross)))
    return out


def quartiles_ms(seconds: Sequence[float]) -> list[float]:
    """q1, median and q3 of the times, in milliseconds."""
    ms = sorted(s * 1000 for s in seconds)
    if len(ms) == 1:
        return ms * 3
    return statistics.quantiles(ms, n=4, method="inclusive")


def record(layer: str, text: str, times: list[tuple[float, float]]) -> str:
    """One row: each scaled figure, then the raw one beside it."""
    raw, scaled = zip(*times)
    q1, median, q3 = quartiles_ms(scaled)
    raw_q1, raw_median, raw_q3 = quartiles_ms(raw)
    return (
        f"layer={layer} input={text} repeats={len(times)} "
        f"median_ms={median:.3f} raw_median_ms={raw_median:.3f} "
        f"q1_ms={q1:.3f} raw_q1_ms={raw_q1:.3f} q3_ms={q3:.3f} raw_q3_ms={raw_q3:.3f}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per layer")
    parser.add_argument(
        "--layer", action="append", metavar="NAME", help="time only this layer (repeatable)"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rows = cases()
    known = list(dict.fromkeys(layer for layer, _, _ in rows))
    unknown = [name for name in args.layer or () if name not in known]
    if unknown:
        parser.error(f"unknown layer {', '.join(unknown)}; known: {', '.join(known)}")
    for layer, text, repeat in rows:
        if args.layer is None or layer in args.layer:
            print(record(layer, text, [repeat() for _ in range(args.repeats)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
