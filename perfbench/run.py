"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload link-poly --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports moycalc from ``src/``
and writes only under ``.perfbench_out/``.  Each workload is one closed
loop with one client in one process.  It runs whole rounds of items
(see workloads.py) until the scaled item time (below) reaches
``--seconds``; each item is timed alone and checked after its clock
stops.

Times are reported in reference seconds: the speed of a shared machine
jumps by a factor near two several times a second, so speed.py samples
it every 10 ms all through the run and every item's wall time is
weighted by the speed of the stretch it ran in.  Set-up runs in fresh
interpreters that sample their own speed the same way.  The raw
wall-clock values are printed beside the scaled ones.

``item_tail_ms`` is the latency at the workload's TAIL_PERCENTILE, fixed
per workload so that at least ten items lie beyond it in a run of the
seed program.  It is fixed rather than recomputed from each run's item
count because that count grows with the program's speed: a percentile
that moved with it would report a higher tail for a faster program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
the same workload and seed untraced in a child process, then traced in
this one, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the lines before it are
``key=value`` records for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
ITEM_CAP_S = 60
SETUP_PROBES = 5


class ItemTimeout(BaseException):
    """Raised into an item that passed the per-item time cap."""


class ItemCap:
    """Raises ItemTimeout from the speed log's timer once an item runs
    past its deadline."""

    def __init__(self) -> None:
        self.deadline: float | None = None

    def __call__(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise ItemTimeout


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's first round and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, workdir: Path):
    """Import the program, build the workload and its first round."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; have {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    rounds = workload.rounds()
    first = next(rounds)
    return workload, first, rounds


def setup_only(args: argparse.Namespace, workdir: Path) -> None:
    """Build the workload's first round under a speed log and print
    the wall and scaled seconds it took."""
    log = speed.SpeedLog()
    log.start()
    start = time.perf_counter()
    load_workload(args.workload, args.seed, workdir)
    end = time.perf_counter()
    log.stop()
    print(json.dumps({"wall": end - start, "scaled": log.scaled(start, end)}))


def time_setups(args: argparse.Namespace) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of fresh interpreters that start, import and
    build the first round, then exit: the set-up every CLI-style run pays.

    The child scales the part it can see; interpreter start-up and exit
    around it are scaled by probes taken here just before and after.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    log = speed.SpeedLog()
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            log.probe()
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        spent = time.perf_counter() - start
        for _ in range(SETUP_PROBES):
            log.probe()
        child = json.loads(done.stdout.strip().splitlines()[-1])
        around = statistics.median(log.spans[-2 * SETUP_PROBES :])
        outside = (spent - child["wall"]) * speed.REFERENCE_PROBE_S / around
        times.append((spent, child["scaled"] + outside))
    return times


def measure(first, rounds, seconds: float, tracer=None) -> dict:
    """Run whole rounds until the scaled item time reaches ``seconds``.

    Records are (kind, props, wall seconds, status, scaled seconds); the
    wall seconds leave out the speed probes that fell inside the item.
    """
    records = []
    spans = []
    failures = []
    timed = scaled = 0.0
    round_times = []
    log = speed.SpeedLog()
    cap = ItemCap()
    log.on_tick = cap
    if tracer is not None:
        import tracing

        # spans leave the speed probes out, as item times do
        tracing.clock = lambda: time.perf_counter() - log.probe_total
    log.start()
    for items in _chain(first, rounds):
        round_start = timed
        for item in items:
            before = log.probe_total
            status, start, end, output = _run_item(item, tracer, cap)
            spent = end - start - (log.probe_total - before)
            if status is None:
                try:
                    if tracer is None:
                        status = item.check(output)
                    else:
                        with tracer.root("check"):
                            status = item.check(output)
                except Exception as exc:  # a malformed output is a wrong output
                    status = f"check raised {type(exc).__name__}: {exc}"
                status = None if status is None else f"wrong: {status}"
            records.append((item.kind, item.props, spent, status))
            spans.append((start, end))
            if status is not None:
                failures.append((item.kind, status))
            timed += spent
            # to stop by; the figures reported are computed again below,
            # once the probes after the last item are in
            scaled += log.scaled(start, end)
        round_times.append((len(items), timed - round_start))
        if scaled >= seconds:
            break
    log.stop()
    records = [
        (*record, log.scaled(start, end)) for record, (start, end) in zip(records, spans)
    ]
    return {
        "records": records,
        "failures": failures,
        "timed": timed,
        "rounds": round_times,
        "probes": len(log.spans),
        "probe_ms": [round(q * 1000, 4) for q in statistics.quantiles(log.spans, n=4)],
        "speed_log": {"starts": log.starts, "spans": log.spans, "items": spans},
    }


def _chain(first, rounds):
    yield first
    yield from rounds


def _run_item(item, tracer, cap: ItemCap):
    """(status, start, end, output) of one item; status None if it returned."""
    start = time.perf_counter()
    cap.deadline = start + ITEM_CAP_S
    try:
        if tracer is None:
            output = item.run()
        else:
            label = " ".join([f"kind={item.kind}"] + [f"{k}={v}" for k, v in item.props])
            with tracer.root(item.kind, label):
                output = item.run()
        return None, start, time.perf_counter(), output
    except ItemTimeout:
        return f"timeout: over {ITEM_CAP_S} s", start, time.perf_counter(), None
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}", start, time.perf_counter(), None
    finally:
        cap.deadline = None


def percentile(ordered: list[float], share: float) -> float:
    """The value at ``share`` of the way through a sorted list, linearly
    interpolated between neighbours."""
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(
    result: dict, setup: list[tuple[float, float]], tail_percentile: float
) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details printed beside them."""
    latencies = sorted(scaled for *_, scaled in result["records"])
    raw = sorted(spent for _, _, spent, _, _ in result["records"])
    attempted = len(latencies)
    failed = len(result["failures"])
    done = attempted - failed
    share = tail_percentile / 100
    beyond = sum(1 for value in latencies if value > percentile(latencies, share))
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup) if setup else 0.0, "s"),
        "items_per_s": (done / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (percentile(latencies, share) * 1000, "ms"),
        "ok_ratio": (done / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "setup_s": f"median_of={len(setup)} raw_s="
                   f"{statistics.median(spent for spent, _ in setup) if setup else 0.0:.6g}",
        "items_per_s": f"raw={done / result['timed']:.6g}",
        "item_p50_ms": f"raw={statistics.median(raw) * 1000:.6g}",
        "item_tail_ms": f"raw={percentile(raw, share) * 1000:.6g} "
                        f"percentile={tail_percentile:g} samples={attempted} beyond={beyond}",
        "ok_ratio": f"fail_ratio={failed / attempted:.6g} failed={failed} attempted={attempted}",
    }
    return metrics, details


def report(args, result: dict, metrics: dict, details: dict, extra: dict) -> None:
    records = result["records"]
    attempted = len(records)
    failed = len(result["failures"])
    wrong = sum(1 for _, status in result["failures"] if not status.startswith("timeout"))
    print(
        f"run workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} rounds={len(result['rounds'])} items={attempted} "
        f"timed_s={result['timed']:.3f}"
    )
    print(f"speed probes={result['probes']} probe_ms_quartiles={result['probe_ms']}")
    histogram = Counter((kind, props) for kind, props, _, _, _ in records)
    for (kind, props), number in sorted(histogram.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        fields = " ".join(f"{key}={value}" for key, value in props)
        print(f"inputs kind={kind} {fields} count={number}".replace("  ", " "))
    for kind, status in result["failures"][:20]:
        print(f"failure kind={kind} reason={status!r}")
    for name, (value, unit) in metrics.items():
        tail = f" {details[name]}" if name in details else ""
        print(f"metric name={name} value={value:.6g} unit={unit}{tail}")
    for key, value in extra.items():
        print(f"{key} {value}")
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "rounds": result["rounds"],
        "probe_ms": result["probe_ms"],
        "speed_log": result["speed_log"],
        "items": [
            [kind, dict(props), spent, status, scaled]
            for kind, props, spent, status, scaled in records
        ],
    }), encoding="utf-8")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def plain_child(args) -> dict:
    """The untraced run of the same workload and seed, in a fresh process."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "moycalc" / "__init__.py").is_file():
        print(f"error: no moycalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        if args.trace:
            return traced(args, workdir)
        setup = time_setups(args)
        workload, first, rounds = load_workload(args.workload, args.seed, workdir)
        result = measure(first, rounds, args.seconds)
        metrics, details = end_to_end(result, setup, workload.TAIL_PERCENTILE)
        report(args, result, metrics, details, {})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, workdir: Path) -> int:
    plain = plain_child(args)
    workload, first, rounds = load_workload(args.workload, args.seed, workdir)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    result = measure(first, rounds, args.seconds, tracer)
    per_layer = tracer.per_layer(len(result["records"]))
    e2e, _ = end_to_end(result, [], workload.TAIL_PERCENTILE)
    plain_rate = plain["metrics"]["items_per_s"]["value"]
    metrics = {name: (value, tracing.PER_LAYER_UNITS[name]) for name, value in per_layer.items()}
    metrics["trace.overhead_ratio"] = (e2e["items_per_s"][0] / plain_rate, "ratio")
    details = {
        "trace.overhead_ratio": f"traced_items_per_s={e2e['items_per_s'][0]:.6g} "
                                f"plain_items_per_s={plain_rate:.6g}",
    }
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    extra = {
        f"kind={kind}": " ".join(f"{key}={value:g}" for key, value in row.items())
        for kind, row in sorted(tracer.per_kind().items())
    }
    dense = tracer.dense_by_input
    total = sum(dense.values())
    for label, mults in sorted(dense.items(), key=lambda kv: -kv[1])[:5]:
        extra[f"dense_mults {label}"] = f"value={mults:g} share={mults / total:.4f}"
    extra["spans"] = f"count={len(tracer.spans)} file={path.relative_to(ROOT)}"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "metrics": per_layer})
    report(args, result, metrics, details, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
