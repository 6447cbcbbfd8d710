"""Per-layer tracing for the traced run, installed from outside the program.

``Tracer.install`` replaces public functions and operators of the
moycalc modules with wrappers, in every moycalc module namespace that
holds them and on the classes that define them.  Two kinds of wrapper:

- a span records its name, parent, root, start, end and self time, and
  keeps the aggregates of the hot leaf calls made directly inside it;
- a leaf (``LaurentPoly`` arithmetic, the bijection maps, the box moves,
  the transport routes) only adds its count, self time and total time
  to the aggregate of the span it runs in.  ``LaurentPoly.__bool__`` is
  counted but not timed: one k=4 word makes tens of millions of such
  calls, so their time stays in the caller's self time
  (``weblin.matmul``).

Self time is a call's duration minus the durations of the wrapped calls
inside it.  Every span hangs under a root: one root per item, named
after the item kind, and a "check" root around each reference check,
which the per-layer metrics leave out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

clock = time.perf_counter

# timed leaves; a span's aggregate holds [count, self_s, total_s] per leaf,
# then the __bool__ call and nonzero counts
LEAVES = (
    "qlaurent.mul",
    "qlaurent.add",
    "qlaurent.sub",
    "qlaurent.neg",
    "qlaurent.pow",
    "qlaurent.bar",
    "qlaurent.construct",
    "symhecke.translation_flag",
    "boxcomb.bijection",
    "boxcomb.curly",
    "tangleinv.route_curly",
    "tangleinv.route_translation",
    "tangleinv.route_matrix",
)
SLOT = {name: 3 * i for i, name in enumerate(LEAVES)}
BOOL_CALLS = 3 * len(LEAVES)
BOOL_TRUE = BOOL_CALLS + 1
AGG_SIZE = BOOL_TRUE + 1

LAURENT_LEAVES = (
    ("__mul__", "qlaurent.mul"),
    ("__rmul__", "qlaurent.mul"),
    ("__add__", "qlaurent.add"),
    ("__radd__", "qlaurent.add"),
    ("__sub__", "qlaurent.sub"),
    ("__rsub__", "qlaurent.sub"),
    ("__neg__", "qlaurent.neg"),
    ("__pow__", "qlaurent.pow"),
    ("bar", "qlaurent.bar"),
    ("__init__", "qlaurent.construct"),
)
FUNCTION_LEAVES = (
    ("symhecke", "translation_flag", "symhecke.translation_flag"),
    ("boxcomb", "phi", "boxcomb.bijection"),
    ("boxcomb", "phi_inverse", "boxcomb.bijection"),
    ("boxcomb", "psi", "boxcomb.bijection"),
    ("boxcomb", "psi_inverse", "boxcomb.bijection"),
    ("boxcomb", "curlyvee", "boxcomb.curly"),
    ("boxcomb", "curlywedge", "boxcomb.curly"),
)
GENERATORS = ("merge_matrix", "split_matrix", "cup_matrix", "cap_matrix", "cross_matrix_at")
FUNCTION_SPANS = (
    *(("weblin", name) for name in GENERATORS),
    ("webgraph", "evaluate"),
    ("webgraph", "parse_web"),
    ("tangleinv", "parse_tangle"),
    ("tangleinv", "to_web"),
    ("tangleinv", "link_poly"),
    ("tangleinv", "tangle_matrix"),
    ("symhecke", "kl_element"),
    ("symhecke", "sign_action"),
    ("symhecke", "hecke_mul"),
    ("symhecke", "O_set"),
    ("symhecke", "annihilates"),
    ("boxcomb", "column_strict_fillings"),
    ("foamalg", "verify_foam"),
    ("cli", "main"),
)

# the unit of every per-layer metric; sums are divided by the items run
PER_LAYER_UNITS = {
    "qlaurent.mul_calls": "count/item",
    "qlaurent.add_calls": "count/item",
    "qlaurent.construct_calls": "count/item",
    "qlaurent.self_s": "s/item",
    "qlaurent.zero_test_calls": "count/item",
    "qlaurent.nonzero_ratio": "ratio",
    "weblin.generator_calls": "count/item",
    "weblin.generator_s": "s/item",
    "weblin.matmul_calls": "count/item",
    "weblin.matmul_s": "s/item",
    "weblin.dense_mults": "count/item",
    "weblin.result_nnz_ratio": "ratio",
    "weblin.max_dim": "count",
    "weblin.eq_calls": "count/item",
    "weblin.eq_s": "s/item",
    "webgraph.evaluate_calls": "count/item",
    "webgraph.evaluate_self_s": "s/item",
    "webgraph.layers_evaluated": "count/item",
    "webgraph.parse_web_s": "s/item",
    "tangleinv.parse_s": "s/item",
    "tangleinv.to_web_s": "s/item",
    "tangleinv.link_poly_s": "s/item",
    "tangleinv.tangle_matrix_s": "s/item",
    "tangleinv.max_compiled_width": "count",
    "tangleinv.route_curly_s": "s/item",
    "tangleinv.route_translation_s": "s/item",
    "tangleinv.route_matrix_s": "s/item",
    "symhecke.kl_element_calls": "count/item",
    "symhecke.kl_distinct_ratio": "ratio",
    "symhecke.kl_element_s": "s/item",
    "symhecke.sign_action_calls": "count/item",
    "symhecke.sign_action_s": "s/item",
    "symhecke.hecke_mul_calls": "count/item",
    "symhecke.O_set_s": "s/item",
    "symhecke.annihilates_s": "s/item",
    "symhecke.translation_flag_s": "s/item",
    "boxcomb.fillings_calls": "count/item",
    "boxcomb.fillings_out": "count/item",
    "boxcomb.fillings_s": "s/item",
    "boxcomb.bijection_s": "s/item",
    "boxcomb.curly_s": "s/item",
    "foamalg.verify_s": "s/item",
    "cli.main_calls": "count/item",
    "cli.self_s": "s/item",
}


class Span:
    __slots__ = ("name", "index", "parent", "root", "start", "end", "self_s", "agg")

    def __init__(self, name: str, index: int, parent: int, root: int) -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.root = root
        self.start = self.end = self.self_s = 0.0
        self.agg = [0] * AGG_SIZE


class Tracer:
    """Spans and leaf aggregates of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.agg = [0] * AGG_SIZE  # aggregate of the innermost open span
        self.child = 0.0  # wrapped time already spent inside the innermost open call
        self.counting = False  # inside an item root, not a check
        self.label = ""  # kind and input properties of the open item root
        self.counters: dict[str, float] = defaultdict(float)
        self.dense_by_input: dict[str, float] = defaultdict(float)
        self.kl_seen: set[tuple[int, ...]] = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def root(self, name: str, label: str = "") -> Iterator[None]:
        """Open a root span: an item (named by its kind) or "check"."""
        span = Span(name, len(self.spans), -1, len(self.spans))
        self.spans.append(span)
        self.stack.append(span)
        self.agg, self.child = span.agg, 0.0
        self.counting = name != "check"
        self.label = label
        span.start = clock()
        try:
            yield
        finally:
            span.end = clock()
            span.self_s = span.end - span.start - self.child
            self.stack.pop()
            self.agg = [0] * AGG_SIZE
            self.counting = False

    def _span(self, orig: Callable, name: str, after: Callable | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            t = tracer
            stack = t.stack
            if not stack:
                return orig(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, len(t.spans), parent.index, parent.root)
            t.spans.append(span)
            stack.append(span)
            saved_agg, t.agg = t.agg, span.agg
            saved_child, t.child = t.child, 0.0
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                span.start, span.end = start, end
                span.self_s = end - start - t.child
                t.child = saved_child + end - start
                t.agg = saved_agg
                stack.pop()
            if after is not None and t.counting:
                after(t, args, result)
            return result

        return wrapper

    def _leaf(self, orig: Callable, leaf: str) -> Callable:
        tracer = self
        base = SLOT[leaf]

        def wrapper(*args, **kwargs):
            t = tracer
            saved_child, t.child = t.child, 0.0
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                spent = clock() - start
                agg = t.agg
                agg[base] += 1
                agg[base + 1] += spent - t.child
                agg[base + 2] += spent
                t.child = saved_child + spent

        return wrapper

    def _bool(self, orig: Callable) -> Callable:
        tracer = self

        def wrapper(poly):
            nonzero = orig(poly)
            agg = tracer.agg
            agg[BOOL_CALLS] += 1
            if nonzero:
                agg[BOOL_TRUE] += 1
            return nonzero

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's entry points; lasts for the process."""
        from moycalc import qlaurent, weblin

        def shapes(t: Tracer, matrix: Any) -> None:
            dim = max(len(matrix.rows), len(matrix.cols))
            if dim > t.counters["weblin.max_dim"]:
                t.counters["weblin.max_dim"] = dim

        def after_generator(t: Tracer, args: tuple, result: Any) -> None:
            shapes(t, result)

        def after_matmul(t: Tracer, args: tuple, result: Any) -> None:
            if result is NotImplemented:
                return
            left, right = args
            rows, inner, cols = len(left.rows), len(left.cols), len(right.cols)
            t.counters["weblin.dense_mults"] += rows * inner * cols
            t.dense_by_input[t.label] += rows * inner * cols
            t.counters["weblin.result_cells"] += rows * cols
            t.counters["weblin.result_nnz"] += sum(
                1 for row in result.entries for p in row if p.terms
            )
            shapes(t, result)

        def after_evaluate(t: Tracer, args: tuple, result: Any) -> None:
            t.counters["webgraph.layers_evaluated"] += len(args[0].layers)

        def after_to_web(t: Tracer, args: tuple, result: Any) -> None:
            width = max(len(b) for b in result.boundaries)
            if width > t.counters["tangleinv.max_compiled_width"]:
                t.counters["tangleinv.max_compiled_width"] = width

        def after_kl(t: Tracer, args: tuple, result: Any) -> None:
            t.kl_seen.add(args[0].images)

        def after_fillings(t: Tracer, args: tuple, result: Any) -> None:
            t.counters["boxcomb.fillings_out"] += len(result)

        after = {
            "webgraph.evaluate": after_evaluate,
            "tangleinv.to_web": after_to_web,
            "symhecke.kl_element": after_kl,
            "boxcomb.column_strict_fillings": after_fillings,
        }
        for module, name in FUNCTION_SPANS:
            key = f"{module}.{name}"
            hook = after_generator if name in GENERATORS else after.get(key)
            self._replace(module, name, lambda orig, key=key, hook=hook: self._span(orig, key, hook))
        for module, name, leaf in FUNCTION_LEAVES:
            self._replace(module, name, lambda orig, leaf=leaf: self._leaf(orig, leaf))
        self._replace("tangleinv", "grothendieck_map", self._routes)
        poly = qlaurent.LaurentPoly
        for attr, leaf in LAURENT_LEAVES:
            setattr(poly, attr, self._leaf(poly.__dict__[attr], leaf))
        poly.__bool__ = self._bool(poly.__dict__["__bool__"])
        matrix = weblin.QMatrix
        matrix.__matmul__ = self._span(matrix.__dict__["__matmul__"], "weblin.matmul", after_matmul)
        matrix.__eq__ = self._span(matrix.__dict__["__eq__"], "weblin.eq")

    def _routes(self, orig: Callable) -> Callable:
        """Wrap each closure ``grothendieck_map`` returns as a route leaf."""

        def wrapper(*args, **kwargs):
            route = kwargs.get("route", args[4] if len(args) > 4 else "curly")
            return self._leaf(orig(*args, **kwargs), f"tangleinv.route_{route}")

        return wrapper

    @staticmethod
    def _replace(module: str, name: str, make: Callable[[Callable], Callable]) -> None:
        orig = getattr(importlib.import_module(f"moycalc.{module}"), name)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "moycalc" or mod_name.startswith("moycalc."):
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)

    # -- reading -----------------------------------------------------------

    def _item_spans(self) -> list[Span]:
        spans = self.spans
        return [s for s in spans if spans[s.root].name != "check"]

    def per_layer(self, items: int) -> dict[str, float]:
        """Every per-layer metric over the spans under item roots; counts
        and seconds are per item."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        agg = [0] * AGG_SIZE
        for span in self._item_spans():
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            for i, value in enumerate(span.agg):
                if value:
                    agg[i] += value

        def leaf(name: str, field: int) -> float:
            return agg[SLOT[name] + field]

        c = self.counters
        generator_names = [f"weblin.{name}" for name in GENERATORS]
        zero_tests = agg[BOOL_CALLS]
        metrics = {
            "qlaurent.mul_calls": leaf("qlaurent.mul", 0),
            "qlaurent.add_calls": leaf("qlaurent.add", 0),
            "qlaurent.construct_calls": leaf("qlaurent.construct", 0),
            "qlaurent.self_s": sum(leaf(n, 1) for n in LEAVES if n.startswith("qlaurent.")),
            "qlaurent.zero_test_calls": zero_tests,
            "qlaurent.nonzero_ratio": agg[BOOL_TRUE] / zero_tests if zero_tests else 0.0,
            "weblin.generator_calls": sum(calls[n] for n in generator_names),
            "weblin.generator_s": sum(self_s[n] for n in generator_names),
            "weblin.matmul_calls": calls["weblin.matmul"],
            "weblin.matmul_s": self_s["weblin.matmul"],
            "weblin.dense_mults": c["weblin.dense_mults"],
            "weblin.result_nnz_ratio": (
                c["weblin.result_nnz"] / c["weblin.result_cells"] if c["weblin.result_cells"] else 0.0
            ),
            "weblin.max_dim": c["weblin.max_dim"],
            "weblin.eq_calls": calls["weblin.eq"],
            "weblin.eq_s": self_s["weblin.eq"],
            "webgraph.evaluate_calls": calls["webgraph.evaluate"],
            "webgraph.evaluate_self_s": self_s["webgraph.evaluate"],
            "webgraph.layers_evaluated": c["webgraph.layers_evaluated"],
            "webgraph.parse_web_s": self_s["webgraph.parse_web"],
            "tangleinv.parse_s": self_s["tangleinv.parse_tangle"],
            "tangleinv.to_web_s": self_s["tangleinv.to_web"],
            "tangleinv.link_poly_s": self_s["tangleinv.link_poly"],
            "tangleinv.tangle_matrix_s": self_s["tangleinv.tangle_matrix"],
            "tangleinv.max_compiled_width": c["tangleinv.max_compiled_width"],
            "tangleinv.route_curly_s": leaf("tangleinv.route_curly", 2),
            "tangleinv.route_translation_s": leaf("tangleinv.route_translation", 2),
            "tangleinv.route_matrix_s": leaf("tangleinv.route_matrix", 2),
            "symhecke.kl_element_calls": calls["symhecke.kl_element"],
            "symhecke.kl_distinct_ratio": (
                len(self.kl_seen) / calls["symhecke.kl_element"] if calls["symhecke.kl_element"] else 0.0
            ),
            "symhecke.kl_element_s": self_s["symhecke.kl_element"],
            "symhecke.sign_action_calls": calls["symhecke.sign_action"],
            "symhecke.sign_action_s": self_s["symhecke.sign_action"],
            "symhecke.hecke_mul_calls": calls["symhecke.hecke_mul"],
            "symhecke.O_set_s": self_s["symhecke.O_set"],
            "symhecke.annihilates_s": self_s["symhecke.annihilates"],
            "symhecke.translation_flag_s": leaf("symhecke.translation_flag", 1),
            "boxcomb.fillings_calls": calls["boxcomb.column_strict_fillings"],
            "boxcomb.fillings_out": c["boxcomb.fillings_out"],
            "boxcomb.fillings_s": self_s["boxcomb.column_strict_fillings"],
            "boxcomb.bijection_s": leaf("boxcomb.bijection", 1),
            "boxcomb.curly_s": leaf("boxcomb.curly", 1),
            "foamalg.verify_s": self_s["foamalg.verify_foam"],
            "cli.main_calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
        }
        return {
            name: value / items if PER_LAYER_UNITS[name].endswith("/item") else value
            for name, value in metrics.items()
        }

    def per_kind(self) -> dict[str, dict[str, int]]:
        """Call counts of the main layer entry points under each item kind,
        to show which layers each part of a workload loads."""
        out: dict[str, dict[str, int]] = {}
        spans = self.spans
        for span in self._item_spans():
            kind = spans[span.root].name
            row = out.setdefault(
                kind,
                {"items": 0, "qlaurent.mul_calls": 0, "qlaurent.zero_test_calls": 0,
                 "weblin.generator_calls": 0, "weblin.matmul_calls": 0,
                 "symhecke.calls": 0, "boxcomb.fillings_calls": 0},
            )
            if span.root == span.index:
                row["items"] += 1
            row["qlaurent.mul_calls"] += span.agg[SLOT["qlaurent.mul"]]
            row["qlaurent.zero_test_calls"] += span.agg[BOOL_CALLS]
            if span.name.removeprefix("weblin.") in GENERATORS:
                row["weblin.generator_calls"] += 1
            elif span.name == "weblin.matmul":
                row["weblin.matmul_calls"] += 1
            elif span.name.startswith("symhecke."):
                row["symhecke.calls"] += 1
            elif span.name == "boxcomb.column_strict_fillings":
                row["boxcomb.fillings_calls"] += 1
        return out

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write every span and its non-empty leaf aggregates as JSON."""
        spans = []
        for s in self.spans:
            leaves = {
                name: s.agg[SLOT[name] : SLOT[name] + 3]
                for name in LEAVES
                if s.agg[SLOT[name]]
            }
            if s.agg[BOOL_CALLS]:
                leaves["qlaurent.bool"] = [s.agg[BOOL_CALLS], s.agg[BOOL_TRUE]]
            spans.append([s.name, s.parent, s.root, s.start, s.end, s.self_s, leaves])
        path.write_text(
            json.dumps({**extra, "fields": ["name", "parent", "root", "start", "end", "self_s", "leaves"],
                        "spans": spans}),
            encoding="utf-8",
        )
