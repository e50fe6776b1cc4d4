#!/usr/bin/env python3
"""quadpic benchmark: one workload per process, a closed loop from one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload xcheck --seed 1 --seconds 35 --trace 0

The run sets its inputs up from the seed, then repeats whole rounds of the
same operations, one at a time, until --seconds have passed.  Every round
starts from the state the set-up left (shared lattices are restored from a
copy between rounds, outside the timed phase), so no cache carries over from
one round to the next.  Every answer is checked.  Every half second, between
ops, two fixed pure-Python loops measure how fast the host runs right now,
and the op times are scaled to a reference speed (see machine_scale).  The
last line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("xcheck", "queries", "models")
SETUP_REPEATS = 7

# Geometric mean of the two probe times on the 2-core host the benchmark was
# tuned on, at its typical speed.  Scaled times read as times on that host.
PROBE_REF_S = 0.0075
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="quadpic benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-tests")
    return parser.parse_args(argv)


def load_engine(repeats: int) -> float:
    """Import quadpic from this checkout's src/ afresh `repeats` times.

    Returns the median import time, scaled by machine_scale; the last import
    is the one in use.
    """
    if not os.path.isfile(os.path.join(SRC, "quadpic", "__init__.py")):
        raise SystemExit(f"error: no engine source at {SRC}/quadpic")
    sys.path.insert(0, SRC)
    times = []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n == "quadpic" or n.startswith("quadpic.")]:
            del sys.modules[name]
        before = machine_scale()
        start = time.perf_counter()
        quadpic = importlib.import_module("quadpic")
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before * machine_scale()) ** 0.5)
    if not os.path.abspath(quadpic.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: quadpic imported from {quadpic.__file__}, not {SRC}")
    return statistics.median(times)


def _probe_dict() -> int:
    """Tuples, dict updates and tiny sorts: the interpreter's common path."""
    table: dict = {}
    total = 0
    for i in range(10000):
        t = (i, i & 7, i % 13)
        table[t[1:]] = table.get(t[1:], 0) + t[0]
        total += len(sorted((t[2], t[1], t[0])))
    return total


def _probe_int() -> int:
    """Small-integer arithmetic in a tight loop."""
    total = 0
    for i in range(60000):
        total += (i * i) % 7
    return total


def machine_scale() -> float:
    """PROBE_REF_S divided by the probes' time now; multiply a time by it.

    The shared host this was tuned on switches for minutes at a time between
    a fast and a slow phase, 1.5-1.9x apart, with the process on the CPU
    throughout.  Two fixed loops that touch nothing of quadpic (best of three
    each, geometric mean) track that speed: scaling each round's times by
    this factor cut the spread of ops_per_s between 35 s windows from
    0.12-0.18 of the median to 0.03-0.06.  The probes take about 50 ms and
    run outside the timed ops.  A change to quadpic cannot move the probes,
    so it moves the scaled times fully.
    """
    product = 1.0
    for probe in (_probe_dict, _probe_int):
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            probe()
            best = min(best, time.perf_counter() - start)
        product *= best
    return PROBE_REF_S / product ** 0.5


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Counts, latencies and check failures of one benchmark process."""

    def __init__(self, workload, state, tracer=None):
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.ops = state.ops
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.matrix: list[list] = []
        self.scales: list[float] = []
        self.rounds = 0

    def round(self, traced: bool = False, scaled: bool = False) -> None:
        """One whole round of the operations, each timed and checked.

        With `scaled`, the host's speed is probed at the start of the round,
        after each op that ends PROBE_EVERY_S or more after the last probe,
        and at the end; each op's time is multiplied by the geometric mean of
        the two machine_scale factors that bracket it.
        """
        ctx = self.workload.fresh(self.state)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.in_round = True
        answers = []
        row = []
        self.matrix.append(row)
        factor = machine_scale() if scaled else 1.0
        probed = time.perf_counter()
        pending = []  # positions in row timed since the last probe

        def rescale():
            nonlocal factor, probed
            new = machine_scale()
            mean = (factor * new) ** 0.5
            for i in pending:
                row[i] *= mean
            self.scales.append(mean)
            pending.clear()
            factor, probed = new, time.perf_counter()

        try:
            for index, op in enumerate(self.ops):
                self.attempted += 1
                if tracer is not None:
                    tracer.op = index
                    tracer.enabled = True
                start = time.perf_counter()
                try:
                    answer = self.workload.run(op, ctx)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    if tracer is not None:
                        tracer.enabled = False
                    self.failed += 1
                    key = f"{op.kind}: {type(exc).__name__}: {exc}"
                    self.failures[key] = self.failures.get(key, 0) + 1
                    answers.append(None)
                    row.append(None)
                    continue
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                row.append(elapsed)
                answers.append(answer)
                for problem in self.workload.check(op, answer, ctx):
                    self.errors.append(f"op {index} ({op.kind}): {problem}")
                if scaled:
                    pending.append(index)
                    if time.perf_counter() - probed >= PROBE_EVERY_S:
                        rescale()
            if pending:
                rescale()
            for problem in self.workload.check_round(self.ops, answers, ctx):
                self.errors.append(f"round: {problem}")
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.in_round = False
                tracer.uninstall()
        for op, elapsed in zip(self.ops, row):
            if elapsed is not None:
                self.latencies.append(elapsed)
                self.by_kind.setdefault(op.kind, []).append(elapsed)
        self.rounds += 1


def measure_setup(workload, seed, size, repeats):
    """Set the workload up several times; returns the last state and the
    set-up times, each scaled by the machine_scale factors taken just before
    and just after it."""
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
        before = machine_scale()
        start = time.perf_counter()
        state = workload.setup(seed, size, OUT_DIR)
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before * machine_scale()) ** 0.5)
    return state, times


def per_op_medians(run) -> list[float]:
    """Each op's median time over the rounds, for the ops that never failed.

    Every round runs the same ops from the same state, so an op's repeats
    differ only by what the machine did meanwhile.  On a shared host whose
    speed swings by up to 2x within seconds, the median repeat is the
    steadiest estimate of the op's own cost.
    """
    return [statistics.median(col) for col in zip(*run.matrix) if None not in col]


def run_untraced(workload, args, import_s):
    state, setup_times = measure_setup(workload, args.seed, args.size, SETUP_REPEATS)
    run = Run(workload, state)
    start = time.perf_counter()
    try:
        while True:
            run.round(scaled=True)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        workload.teardown(state)
    typical = per_op_medians(run)
    lat_ms = sorted(1000.0 * t for t in typical)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    all_ms = sorted(1000.0 * t for t in run.latencies)
    extra = {"rounds": run.rounds, "ops_per_round": len(run.ops),
             "round_scales": run.scales,
             "setup_times_s": setup_times, "import_s": import_s,
             "beyond_p90": sum(1 for x in lat_ms if x > metrics["latency_p90_ms"]),
             "all_rounds": {"latency_p50_ms": percentile(all_ms, 50),
                            "latency_p90_ms": percentile(all_ms, 90),
                            "ops_per_s": len(all_ms) / sum(all_ms) * 1000.0},
             "median_ms_by_kind": {k: [len(v), 1000.0 * statistics.median(v)]
                                   for k, v in sorted(run.by_kind.items())}}
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extra


def run_traced(workload, args, import_s):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    before = tracer.snapshot()
    try:
        state = workload.setup(args.seed, args.size, OUT_DIR)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    setup_counts = tracing.diff(tracer.snapshot(), before)
    tracer.end_round()  # the useful-oracle ratio is a per-round figure
    spans_setup = len(tracer.spans)

    run = Run(workload, state, tracer)
    round_counts, ratios = [], []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    try:
        while True:
            t = time.perf_counter()
            run.round()
            plain_s += time.perf_counter() - t
            before = tracer.snapshot()
            t = time.perf_counter()
            run.round(traced=True)
            traced_s += time.perf_counter() - t
            round_counts.append(tracing.diff(tracer.snapshot(), before))
            ratios.append(tracer.end_round())
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        workload.teardown(state)
    overhead = traced_s / plain_s if plain_s > 0 else 0.0
    values = tracing.layer_metrics(setup_counts, round_counts, ratios, overhead)
    metrics = {k: (v, tracing.METRICS[k]) for k, v in values.items()}
    extra = {"traced_rounds": len(round_counts), "absent": tracer.absent,
             "spans_stored": len(tracer.spans), "spans_dropped": tracer.spans_dropped}
    write_trace(args, tracer, spans_setup)
    return run, metrics, extra


def write_trace(args, tracer, spans_setup: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": ["name", "span", "parent", "op", "start", "end"],
                                 "absent": tracer.absent,
                                 "setup_spans": spans_setup,
                                 "dropped": tracer.spans_dropped}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = load_engine(SETUP_REPEATS)
    workload = __import__(f"wl_{args.workload}")
    if args.trace:
        run, metrics, extra = run_traced(workload, args, import_s)
    else:
        run, metrics, extra = run_untraced(workload, args, import_s)

    for key, count in sorted(run.failures.items()):
        print(f"failed x{count}: {key}", file=sys.stderr)
    for problem in run.errors[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if extra.get("absent"):
        print(f"absent trace targets: {', '.join(extra['absent'])}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump({**result, "run": extra, "check_errors": run.errors[:100],
                   "op_seconds_by_round": run.matrix,
                   "failures": run.failures, "wall_s": time.perf_counter() - _T0},
                  handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
