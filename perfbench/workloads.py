"""The four benchmark workloads: seeded inputs, timed items, reference checks.

A workload yields rounds.  A round is a list of items, and every round
of a workload has the same mix of input classes, so runs with different
seeds measure the same mix while the seed picks the inputs inside each
class.  An item's ``run`` is the timed call into the program; its
``check`` runs after the clock stops and compares the output with a
reference that does not come from the code path ``run`` timed.

Program functions are always looked up through their module
(``tangleinv.link_poly(...)``), never bound at import, so the traced
run can replace them with wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, permutations
from math import comb, factorial, prod
from pathlib import Path
from typing import Any, Callable, Iterator

from moycalc import boxcomb, cli, foamalg, qlaurent, symhecke, tangleinv, webgraph, weblin

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass
class Item:
    """One timed unit of work and the check of its output.

    ``props`` are the input properties recorded in the run's input
    histogram.  ``check`` returns None for a correct output, otherwise
    the reason it is wrong.
    """

    kind: str
    props: tuple[tuple[str, object], ...]
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _expect(ok: bool, reason: str) -> str | None:
    return None if ok else reason


def _q1(poly: qlaurent.LaurentPoly) -> int:
    """The value at q=1, read off the normalised terms."""
    return sum(c for _, c in poly.terms)


def _load(name: str) -> Any:
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


def balanced_chunks(
    rng: random.Random, costed: dict[str, float], chunks: int
) -> list[list[str]]:
    """Deal inputs into ``chunks`` lists of near-equal total cost.

    Inputs are sorted by cost and cut into strata of ``chunks``
    neighbours; each chunk receives at most one input of every stratum.
    Chunk j takes the input at rank spread[j] + offset of each stratum,
    where ``spread`` is the bit-reversal order, so that the first few
    chunks, all a short run reaches, already sample every stratum
    evenly.  The offset is drawn from ``rng`` once for the whole deal:
    the first few chunks together are then a systematic sample of the
    cost order, whose percentiles move less from seed to seed than
    those of a sample with a fresh offset in every stratum.
    """
    ordered = sorted(costed, key=lambda key: (costed[key], key))
    bits = max(1, (chunks - 1).bit_length())
    spread = sorted(range(chunks), key=lambda j: int(f"{j:0{bits}b}"[::-1], 2))
    out: list[list[str]] = [[] for _ in range(chunks)]
    offset = rng.randrange(chunks)
    for start in range(0, len(ordered), chunks):
        stratum = ordered[start : start + chunks]
        for j in range(chunks):
            rank = (spread[j] + offset) % chunks
            if rank < len(stratum):
                out[j].append(stratum[rank])
    return out


# ----------------------------------------------------------------------
# oriented tangle words, built and measured without the program

Layer = tuple  # ("cup", pos, "-+") | ("cap", pos) | ("X+", pos) | ("X-", pos)


def _opp(sign: str) -> str:
    return "+" if sign == "-" else "-"


def word_text(k: int, bottom: str, layers: list[Layer]) -> str:
    lines = [f"tangle k={k} bottom={bottom}"]
    for layer in layers:
        if layer[0] == "cup":
            lines.append(f"cup({layer[2]}@{layer[1]})")
        else:
            lines.append(f"{layer[0]}(@{layer[1]})")
    return "\n".join(lines) + "\n"


def web_layers(bottom: str, layers: list[Layer]) -> list[tuple[int, int]]:
    """(strands below, strands above) of every layer of the compiled web.

    A crossing is rotated onto two "-" strands with one cup before it
    and one cap after it per "+" strand it touches.
    """
    signs = list(bottom)
    out = []
    for layer in layers:
        kind, pos = layer[0], layer[1]
        w = len(signs)
        if kind == "cup":
            signs[pos - 1 : pos - 1] = list(layer[2])
            out.append((w, w + 2))
        elif kind == "cap":
            del signs[pos - 1 : pos + 1]
            out.append((w, w - 2))
        else:
            plus = (signs[pos - 1] == "+") + (signs[pos] == "+")
            signs[pos - 1], signs[pos] = signs[pos], signs[pos - 1]
            ups = [(w + 2 * i, w + 2 * i + 2) for i in range(plus)]
            out += ups + [(w + 2 * plus, w + 2 * plus)] + [(b, a) for a, b in reversed(ups)]
    return out


def max_width(bottom: str, layers: list[Layer]) -> int:
    return max([len(bottom)] + [w for pair in web_layers(bottom, layers) for w in pair])


def cost_bin(k: int, bottom: str, layers: list[Layer]) -> int:
    """floor(2 log2) of the dense work of evaluating the compiled web, so
    bins are half an octave wide: every layer matrix is a dense
    k^below x k^above grid, each entry of which is built and tested once."""
    return (sum(k ** (a + b) for a, b in web_layers(bottom, layers)) ** 2).bit_length() - 1


def components(layers: list[Layer]) -> int:
    """Components of a closed word, by following its strands."""
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    strands: list[int] = []
    for layer in layers:
        kind, pos = layer[0], layer[1]
        if kind == "cup":
            parent.append(len(parent))
            strands[pos - 1 : pos - 1] = [parent[-1], parent[-1]]
        elif kind == "cap":
            a, b = find(strands[pos - 1]), find(strands[pos])
            if a != b:
                parent[b] = a
            del strands[pos - 1 : pos + 1]
        else:
            strands[pos - 1], strands[pos] = strands[pos], strands[pos - 1]
    return len({find(i) for i in range(len(parent))})


def _program_word(bottom: str, layers: list[Layer]) -> tangleinv.TangleWord:
    return tangleinv.TangleWord(
        tuple(bottom),
        tuple(
            tangleinv.TangleLayer("cup", layer[1], tuple(layer[2]))
            if layer[0] == "cup"
            else tangleinv.TangleLayer(layer[0], layer[1])
            for layer in layers
        ),
    )


def _check_closed(k: int, layers: list[Layer], value: qlaurent.LaurentPoly) -> str | None:
    expected = k ** components(layers)
    if _q1(value) != expected:
        return f"value {value} at q=1 is not {expected}: {layers}"
    if k == 2:
        oracle = tangleinv.skein_oracle(_program_word("", layers))
        return _expect(oracle == value, f"value {value} != skein oracle {oracle}: {layers}")
    return None


def _crossing_count(layers: list[Layer]) -> int:
    return sum(1 for layer in layers if layer[0] in ("X+", "X-"))


# ----------------------------------------------------------------------
# link-poly


def _corpus_layers(text: str) -> list[Layer]:
    layers: list[Layer] = []
    for piece in text.split(";"):
        piece = piece.strip()
        kind, _, args = piece[:-1].partition("(")
        pair, _, pos = args.partition("@")
        layers.append((kind, int(pos), pair) if kind == "cup" else (kind, int(pos)))
    return layers


def plat_closure(rng: random.Random, cups: int, crossings: int) -> list[Layer]:
    """Cups side by side with random orientations, random crossings,
    then random caps, each joining two opposite neighbours."""
    layers: list[Layer] = []
    signs: list[str] = []
    for i in range(cups):
        pair = rng.choice(("-+", "+-"))
        layers.append(("cup", 2 * i + 1, pair))
        signs.extend(pair)
    for _ in range(crossings):
        pos = rng.randint(1, len(signs) - 1)
        layers.append((rng.choice(("X+", "X-")), pos))
        signs[pos - 1], signs[pos] = signs[pos], signs[pos - 1]
    while signs:
        pos = rng.choice(
            [p for p in range(1, len(signs)) if signs[p - 1] != signs[p]]
        )
        layers.append(("cap", pos))
        del signs[pos - 1 : pos + 1]
    return layers


MAX_WIDTH = 6
# One random word per (k, cost bin) in every round; bins are half an
# octave wide, so the words of one bin differ in dense work by less than
# a factor 1.42.  At k=4, bin 48 holds the words with exactly one
# crossing at compiled width 6 (a 4096 x 4096 layer); bins 32-36 stay at
# width 4.  At k=3, bins 38 and 41 reach width 6.
WORD_BINS = ((2, (19, 21, 25, 29)), (3, (25, 27, 29, 30, 38, 41)), (4, (32, 35, 36, 48)))


def random_word(rng: random.Random, k: int, target: int) -> list[Layer]:
    for _ in range(100_000):
        layers = plat_closure(rng, rng.randint(1, 3), rng.randint(1, 6 if k == 2 else 5))
        if max_width("", layers) <= MAX_WIDTH and cost_bin(k, "", layers) == target:
            return layers
    raise RuntimeError(f"no word in cost bin {target} at k={k}")


class LinkPoly:
    """Closed words to link polynomials at k=2,3,4.

    Each round submits the CORPUS through ``moycalc link-poly`` at every
    k, then evaluates fresh seeded plat closures with ``link_poly``.
    Corpus words an octave of dense work or more above the dearest
    random class are left out: at k=4 those with more than one crossing
    at compiled width 6, 10-20 s each on the seed, longer than a round
    may take.  The k=4 random word in cost bin 48 stands in for them.

    Every value must be k^components at q=1 (components counted here by
    following strands), and at k=2 equal the program's independent
    ``skein_oracle``; CLI output must also match the frozen seed text.
    """

    name = "link-poly"
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.expected: dict[str, str] = _load("corpus_link_poly.json")
        self.cli_inputs = []
        for name, text in tangleinv.CORPUS.items():
            path = workdir / f"{name}.tangle"
            path.write_text(text + "\n", encoding="utf-8")
            layers = _corpus_layers(text)
            for k in (2, 3, 4):
                if cost_bin(k, "", layers) // 2 > max(WORD_BINS[-1][1]) // 2:
                    continue
                self.cli_inputs.append((name, k, str(path), layers))

    def rounds(self) -> Iterator[list[Item]]:
        for index in count():
            yield self._round(index)

    def _round(self, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        items = [self._cli_item(*spec) for spec in self.cli_inputs]
        for k, bins in WORD_BINS:
            items.extend(self._word_item(k, random_word(rng, k, target)) for target in bins)
        return items

    def _cli_item(self, name: str, k: int, path: str, layers: list[Layer]) -> Item:
        expected = self.expected[f"{name}@k{k}"]
        argv = ["link-poly", "--file", path, "--k", str(k)]

        def run() -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result: tuple[int, str]) -> str | None:
            code, text = result
            if code != 0 or text != expected:
                return f"link-poly {name} k={k}: exit {code}, stdout {text!r}, frozen {expected!r}"
            return _check_closed(k, layers, qlaurent.parse_laurent(text))

        return Item("cli", self._props(k, layers), run, check)

    def _word_item(self, k: int, layers: list[Layer]) -> Item:
        text = word_text(k, "", layers)

        def run() -> qlaurent.LaurentPoly:
            return tangleinv.link_poly(tangleinv.parse_tangle(text))

        return Item("word", self._props(k, layers), run, lambda value: _check_closed(k, layers, value))

    @staticmethod
    def _props(k: int, layers: list[Layer]) -> tuple:
        return (
            ("k", k),
            ("width", max_width("", layers)),
            ("crossings", _crossing_count(layers)),
        )


# ----------------------------------------------------------------------
# tangle-moves


def _r3_sides(window: str, pos: int, picture: str) -> tuple[list[Layer], list[Layer]]:
    """Both sides of the braid move on strands pos..pos+2; each crossing
    shows the same over/under picture, so its sign follows from whether
    its two strands are parallel at that moment."""

    def side(offsets: tuple[int, int, int]) -> list[Layer]:
        current = list(window)
        layers: list[Layer] = []
        for off in offsets:
            parallel = current[off] == current[off + 1]
            layers.append(("X+" if parallel == (picture == "+") else "X-", pos + off))
            current[off], current[off + 1] = current[off + 1], current[off]
        return layers

    return side((0, 1, 0)), side((1, 0, 1))


def random_move(rng: random.Random, signs: str) -> tuple[str, list[Layer], list[Layer]]:
    """One move on the boundary ``signs``: (name, layers, reduced layers).

    Every move returns the strands to their order, so moves stack.
    """
    width = len(signs)
    choices = ["r1", "zigzag"]
    if width >= 2:
        choices.append("r2")
    r3_at = [p for p in range(1, width - 1) if signs[p - 1] == signs[p + 1]]
    if r3_at:
        choices.append("r3")
    move = rng.choice(choices)
    p = rng.randint(1, width)
    s = signs[p - 1]
    if move == "r1":
        cross = rng.choice(("X+", "X-"))
        if rng.random() < 0.5:
            return move, [("cup", p + 1, s + _opp(s)), (cross, p), ("cap", p + 1)], []
        return move, [("cup", p, _opp(s) + s), (cross, p + 1), ("cap", p)], []
    if move == "zigzag":
        if rng.random() < 0.5:
            return move, [("cup", p + 1, _opp(s) + s), ("cap", p)], []
        return move, [("cup", p, s + _opp(s)), ("cap", p + 1)], []
    if move == "r2":
        p = rng.randint(1, width - 1)
        first, second = rng.choice((("X+", "X-"), ("X-", "X+")))
        return move, [(first, p), (second, p)], []
    p = rng.choice(r3_at)
    left, right = _r3_sides(signs[p - 1 : p + 2], p, rng.choice("+-"))
    return move, left, right


def random_stack(
    rng: random.Random, k: int, target: int
) -> tuple[str, list[Layer], list[Layer], list[str]]:
    """A seeded stack of 2-4 moves on 1-3 strands whose compiled web stays
    at most 6 wide and whose two sides together fall in cost bin
    ``target``; returns (bottom, stacked, reduced, move names)."""
    for _ in range(100_000):
        signs = "".join(rng.choice("-+") for _ in range(rng.randint(1, 3)))
        stacked: list[Layer] = []
        reduced: list[Layer] = []
        names = []
        for _ in range(rng.randint(2, 4)):
            name, layers, rest = random_move(rng, signs)
            stacked += layers
            reduced += rest
            names.append(name)
        work = sum(k ** (a + b) for a, b in web_layers(signs, stacked + reduced))
        if max_width(signs, stacked) <= MAX_WIDTH and work.bit_length() - 1 == target:
            return signs, stacked, reduced, names
    raise RuntimeError(f"no move stack in cost bin {target} at k={k}")


def moy_relations(k: int) -> list[tuple[str, Callable[[], bool]]]:
    """The MOY digon, square and wall relations at rank k, each read from
    web text, evaluated and compared with its right-hand side."""

    def web(bottom: str, body: str) -> weblin.QMatrix:
        source = f"web k={k} bottom={bottom}\n" + body.replace(";", "\n")
        return webgraph.evaluate(webgraph.parse_web(source))

    def ident(*labels: int) -> weblin.QMatrix:
        return weblin.QMatrix.identity(weblin.TensorBasis(k, labels))

    def qint(m: int) -> qlaurent.LaurentPoly:
        return qlaurent.quantum_int(m)

    def digon(a: int, b: int) -> Callable[[], bool]:
        return lambda: web(str(a + b), f"split({a},{b}@1);merge({a},{b}@1)") == qint(
            a + b
        ) * ident(a + b)

    def square() -> bool:
        lhs = web(f"1,{k}", f"split(1,{k - 1}@2);merge(1,1@1);split(1,1@1);merge(1,{k - 1}@2)")
        return lhs == webgraph.square_web_matrix(k) + qint(k - 1) * ident(1, k)

    def wall() -> bool:
        lhs = web(
            f"{k},1,{k - 1}",
            f"split({k - 1},1@1);merge(1,1@2);split(1,1@2);merge(1,{k - 1}@3);"
            f"split(1,{k - 1}@3);merge(1,1@2);split(1,1@2);merge({k - 1},1@1)",
        )
        double_wall = web(f"{k},1,{k - 1}", f"merge(1,{k - 1}@2);split(1,{k - 1}@2)")
        return lhs == ident(k, 1, k - 1) + qint(k - 2) * double_wall

    def braid() -> bool:
        e1 = web("1,1,1", "merge(1,1@1);split(1,1@1)")
        e2 = web("1,1,1", "merge(1,1@2);split(1,1@2)")
        return e1 @ e2 @ e1 - e1 == e2 @ e1 @ e2 - e2

    digons = {(1, k - 1), (k - 1, 1), (1, 1)}
    return [(f"digon-{a}-{b}", digon(a, b)) for a, b in sorted(digons)] + [
        ("square", square),
        ("wall", wall),
        ("braid", braid),
    ]


# One move stack per (k, cost bin) in every round; bin 20 at k=3 reaches
# compiled width 6.
STACK_BINS = ((2, (7, 10, 13)), (3, (10, 13, 15, 16, 18, 20)))


class TangleMoves:
    """Open tangles and webs evaluated to whole matrices and compared.

    Each round evaluates fresh seeded move stacks at k=2,3 against
    their reduced sides, and the MOY relation webs at k=2,3,4: 9 stacks
    and 16 webs, an odd count, so that the median item lies inside a
    cost class rather than between two.
    """

    name = "tangle-moves"
    TAIL_PERCENTILE = 97.5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.moy = [(k, label, run) for k in (2, 3, 4) for label, run in moy_relations(k)]

    def rounds(self) -> Iterator[list[Item]]:
        for index in count():
            yield self._round(index)

    def _round(self, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        items = []
        for k, bins in STACK_BINS:
            items.extend(self._stack_item(k, *random_stack(rng, k, target)) for target in bins)
        for k, label, run in self.moy:
            items.append(
                Item(
                    "moy",
                    (("k", k), ("relation", label)),
                    run,
                    lambda same, label=label, k=k: _expect(
                        same is True, f"MOY {label} relation fails at k={k}"
                    ),
                )
            )
        return items

    def _stack_item(
        self, k: int, bottom: str, stacked: list[Layer], reduced: list[Layer], names: list[str]
    ) -> Item:
        lhs_text = word_text(k, bottom, stacked)
        rhs_text = word_text(k, bottom, reduced)

        def run() -> bool:
            lhs = tangleinv.tangle_matrix(tangleinv.parse_tangle(lhs_text))
            rhs = tangleinv.tangle_matrix(tangleinv.parse_tangle(rhs_text))
            return lhs == rhs

        def check(same: bool) -> str | None:
            return _expect(same is True, f"moves {'+'.join(names)} change the matrix: {lhs_text!r}")

        props = (
            ("k", k),
            ("strands", len(bottom)),
            ("width", max_width(bottom, stacked)),
            ("crossings", _crossing_count(stacked)),
        )
        return Item("moves", props, run, check)


# ----------------------------------------------------------------------
# kl-sign


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[i - 1] for i in b)


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a, start=1):
        out[v - 1] = i
    return tuple(out)


def _length(a: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


def _sign(a: tuple[int, ...]) -> int:
    return -1 if _length(a) % 2 else 1


def _longest_decreasing(a: tuple[int, ...]) -> int:
    best = [1] * len(a)
    for j in range(len(a)):
        for i in range(j):
            if a[i] > a[j]:
                best[j] = max(best[j], best[i] + 1)
    return max(best, default=0)


@lru_cache(maxsize=None)
def sign_character(mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The character of the sign module of mu induced to S_n, at q=1:
    chi(x) = sign(x) * #{g : g x g^-1 in S_mu} / |S_mu|."""
    n = sum(mu)
    block = [b for b, part in enumerate(mu) for _ in range(part)]
    group = list(permutations(range(1, n + 1)))
    young = {g for g in group if all(block[g[i] - 1] == block[i] for i in range(n))}
    return {
        x: _sign(x)
        * sum(1 for g in group if _compose(_compose(g, x), _inverse(g)) in young)
        // len(young)
        for x in group
    }


class KlSign:
    """Kazhdan-Lusztig elements and their sign-module actions.

    The first round starts with two items that compute ``kl_element``
    for every element of S_4, then of S_5, from a cold cache.  Every
    round checks bar invariance on one slice of S_4 and S_5, dealt by
    length (bar costs grow about threefold per unit of length), and runs
    ``sign_action(kl_element(w), mu)`` on one chunk of (w, mu) pairs,
    n=4,5, dealt so that each chunk holds the same mix of cheap and dear
    pairs.  The dearest 1% of pairs (0.95-2.7 s each on the seed) are
    left out so a round stays near 2.5 s.
    """

    name = "kl-sign"
    TAIL_PERCENTILE = 95
    CHUNKS = 64
    BAR_SLICES = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        costs: dict[str, float] = _load("costs.json")["sign_action"]
        ordered = sorted(costs, key=lambda key: (costs[key], key))
        kept = ordered[: len(ordered) - len(ordered) // 100]
        self.costs = {key: costs[key] for key in kept}
        self.group = [
            symhecke.Permutation(images)
            for n in (4, 5)
            for images in sorted(permutations(range(1, n + 1)))
        ]
        self.by_text = {w.one_line_text(): w for w in self.group}
        self.bar_costs = {text: 3.0 ** _length(w.images) for text, w in self.by_text.items()}

    def rounds(self) -> Iterator[list[Item]]:
        first = [self._kl_item(n) for n in (4, 5)]
        for cycle in count():
            rng = random.Random(f"{self.name}/{self.seed}/{cycle}")
            slices = balanced_chunks(rng, self.bar_costs, self.BAR_SLICES)
            for index, chunk in enumerate(balanced_chunks(rng, self.costs, self.CHUNKS)):
                bar = [
                    self._bar_item(self.by_text[text])
                    for text in slices[index % self.BAR_SLICES]
                ]
                yield first + bar + [self._sign_item(key) for key in chunk]
                first = []

    def _kl_item(self, n: int) -> Item:
        group = [w for w in self.group if w.n == n]

        def check(elements: list[symhecke.HeckeElement]) -> str | None:
            for w, h in zip(group, elements):
                length = _length(w.images)
                for x, c in h.terms.items():
                    if x == w:
                        if c.terms != ((0, 1),):
                            return f"C_{w} has coefficient {c} on H_{w}"
                    elif any(e <= 0 or v < 0 for e, v in c.terms) or _length(x.images) >= length:
                        return f"C_{w} has coefficient {c} on H_{x}"
                if w not in h.terms:
                    return f"C_{w} lacks H_{w}"
            return None

        return Item("kl", (("n", n),), lambda: [symhecke.kl_element(w) for w in group], check)

    @staticmethod
    def _bar_item(w: symhecke.Permutation) -> Item:
        def check(image: symhecke.HeckeElement) -> str | None:
            return _expect(
                image.terms == symhecke.kl_element(w).terms, f"C_{w} is not bar invariant"
            )

        return Item("bar", (("n", w.n),), lambda: symhecke.kl_element(w).bar(), check)

    @staticmethod
    def _sign_item(key: str) -> Item:
        images_text, mu_text = key.split("|")
        images = tuple(int(ch) for ch in images_text)
        mu = tuple(int(part) for part in mu_text.split(","))
        w = symhecke.Permutation(images)
        n = len(images)

        def run() -> tuple[bool, weblin.QMatrix]:
            return symhecke.annihilates(w, mu), symhecke.sign_action(symhecke.kl_element(w), mu)

        def check(result: tuple[bool, weblin.QMatrix]) -> str | None:
            kills, matrix = result
            dim = factorial(n) // prod(factorial(p) for p in mu)
            if len(matrix.rows) != dim or len(matrix.cols) != dim:
                return f"sign module of {mu} has dimension {len(matrix.rows)}, not {dim}"
            if kills != (_longest_decreasing(images) > len(mu)):
                return f"annihilates({images_text}, {mu}) = {kills}"
            if kills and any(p.terms for row in matrix.entries for p in row):
                return f"C_{images_text} does not kill the sign module of {mu}"
            character = sign_character(mu)
            expected = sum(
                _q1(c) * character[x.images]
                for x, c in symhecke.kl_element(w).terms.items()
            )
            trace = sum(_q1(matrix.entries[i][i]) for i in range(dim))
            return _expect(
                trace == expected,
                f"trace at q=1 of C_{images_text} on {mu} is {trace}, not {expected}",
            )

        return Item("sign", (("n", n), ("mu", mu_text)), run, check)


# ----------------------------------------------------------------------
# cosets


@lru_cache(maxsize=None)
def zero_one_count(columns: tuple[int, ...], rows: tuple[int, ...]) -> int:
    """0/1 matrices with the given column and row sums: the column-strict
    fillings of shape ``columns`` with content ``rows``."""
    if not columns:
        return 1 if not any(rows) else 0
    height, rest = columns[0], columns[1:]
    total = 0
    for chosen in combinations(range(len(rows)), height):
        if all(rows[i] > 0 for i in chosen):
            left = tuple(r - (i in chosen) for i, r in enumerate(rows))
            total += zero_one_count(rest, left)
    return total


def compositions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every composition of n, optionally with parts at most ``largest``."""
    out = []
    for cut_count in range(n):
        for cuts in combinations(range(1, n), cut_count):
            parts = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            if largest is None or max(parts) <= largest:
                out.append(parts)
    return out


def composition_text(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def parse_composition(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


BIJECTION_MIX = ((4, 1), (5, 1), (6, 3))  # (n, pairs per round)
DIMENSION_MIX = ((2, 5), (3, 6), (4, 6))  # (k, n), one of each per round


class Cosets:
    """Coset/filling bijections, dimension identity and class transport.

    The first round runs ``verify_foam`` once.  Every round then checks
    seeded (mu, nu) pairs with n <= 6 (``O_set`` against
    ``column_strict_fillings``, ``psi``/``phi`` round trips), the
    dimension identity at k=2,3,4, and ``compare_theorem13`` on one
    chunk of the one-generator webs (n <= 5, k=2..4).  Webs, pairs and
    dimension inputs are all dealt by their seed-program cost, so that
    every round holds the same mix of cheap and dear inputs.
    """

    name = "cosets"
    TAIL_PERCENTILE = 94.5
    CHUNKS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        tables = _load("costs.json")
        costs: dict[str, float] = tables["compare_theorem13"]
        self.webs = {
            web.text(): web
            for k in (2, 3, 4)
            for n in range(1, 6)
            for web in tangleinv.special_generator_webs(n, k)
        }
        missing = set(self.webs) - set(costs)
        if missing:
            raise RuntimeError(f"costs.json lacks {len(missing)} webs, e.g. {min(missing)!r}")
        self.costs = {text: costs[text] for text in self.webs}
        self.pair_costs = {
            n: {
                key: tables["bijection"][key]
                for key in (
                    f"{composition_text(mu)}|{composition_text(nu)}"
                    for mu in compositions(n)
                    for nu in compositions(n)
                )
            }
            for n, _ in BIJECTION_MIX
        }
        self.dimension_costs = {
            k: {
                composition_text(nu): tables["dimension"][f"{k}|{composition_text(nu)}"]
                for nu in compositions(n, k)
            }
            for k, n in DIMENSION_MIX
        }

    def rounds(self) -> Iterator[list[Item]]:
        rng = random.Random(f"{self.name}/{self.seed}/pairs")
        pairs = [
            balanced_chunks(rng, self.pair_costs[n], len(self.pair_costs[n]) // per_round)
            for n, per_round in BIJECTION_MIX
        ]
        dimensions = [
            balanced_chunks(rng, self.dimension_costs[k], len(self.dimension_costs[k]))
            for k, _ in DIMENSION_MIX
        ]
        first = [self._foam_item()]
        index = 0
        for cycle in count():
            rng = random.Random(f"{self.name}/{self.seed}/{cycle}")
            for chunk in balanced_chunks(rng, self.costs, self.CHUNKS):
                items = [
                    self._bijection_item(*map(parse_composition, key.split("|")))
                    for dealt in pairs
                    for key in dealt[index % len(dealt)]
                ]
                items += [
                    self._dimension_item(k, parse_composition(text))
                    for (k, _), dealt in zip(DIMENSION_MIX, dimensions)
                    for text in dealt[index % len(dealt)]
                ]
                yield first + items + [self._groth_item(text) for text in chunk]
                first = []
                index += 1

    @staticmethod
    def _foam_item() -> Item:
        def check(reports: list) -> str | None:
            failed = [r.check for r in reports if not r.passed]
            return _expect(len(reports) == 5 and not failed, f"foam checks failed: {failed}")

        return Item("foam", (), lambda: foamalg.verify_foam(), check)

    @staticmethod
    def _bijection_item(mu: tuple[int, ...], nu: tuple[int, ...]) -> Item:
        k = len(mu)

        def run() -> tuple:
            cosets = symhecke.O_set(mu, nu)
            fillings = sorted(boxcomb.column_strict_fillings(mu, nu), key=lambda f: f.columns)
            images = {boxcomb.psi(z, mu, nu) for z in cosets}
            back = {boxcomb.psi_inverse(f, mu, nu) for f in fillings}
            keys = [boxcomb.phi(f, k) for f in fillings]
            again = [boxcomb.phi_inverse(key, k) for key in keys]
            return cosets, fillings, images, back, keys, again

        def check(result: tuple) -> str | None:
            cosets, fillings, images, back, keys, again = result
            expected = zero_one_count(mu, nu)
            if len(cosets) != expected or len(fillings) != expected:
                return f"{mu}/{nu}: {len(cosets)} cosets, {len(fillings)} fillings, expected {expected}"
            if images != set(fillings) or back != cosets:
                return f"{mu}/{nu}: psi is not a bijection onto the fillings"
            return _expect(
                again == fillings and len(set(keys)) == len(keys),
                f"{mu}/{nu}: phi does not round-trip",
            )

        props = (("n", sum(mu)), ("mu_parts", len(mu)), ("nu_parts", len(nu)))
        return Item("bijection", props, run, check)

    @staticmethod
    def _dimension_item(k: int, nu: tuple[int, ...]) -> Item:
        n = sum(nu)

        def run() -> int:
            return sum(
                len(boxcomb.column_strict_fillings(mu, nu))
                for mu in boxcomb.all_compositions(n, k)
            )

        expected = prod(comb(k, part) for part in nu)
        return Item(
            "dimension",
            (("k", k), ("n", n)),
            run,
            lambda total: _expect(total == expected, f"dimension of {nu} at k={k} is {total}, not {expected}"),
        )

    def _groth_item(self, text: str) -> Item:
        web = self.webs[text]
        return Item(
            "groth",
            (("k", web.k), ("n", sum(web.bottom))),
            lambda: tangleinv.compare_theorem13(web),
            lambda agree: _expect(agree is True, f"transport routes disagree on {text!r}"),
        )


WORKLOADS = {cls.name: cls for cls in (LinkPoly, TangleMoves, KlSign, Cosets)}
