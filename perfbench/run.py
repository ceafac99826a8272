"""Run one hinak benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  With ``--trace 0`` the run measures the end-to-end metrics with
nothing wrapped.  With ``--trace 1`` it runs pass 0 once untraced and once
under the per-layer tracer, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_out/``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
an undecided answer (see ``workloads.py``) is attempted, not failed, and is
counted on its own line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def import_hinak():
    """Import hinak afresh (dropping any earlier copy) and return its layer modules."""
    for name in [m for m in sys.modules if m == "hinak" or m.startswith("hinak.")]:
        del sys.modules[name]
    importlib.import_module("hinak")
    return argparse.Namespace(**{layer: importlib.import_module(f"hinak.{layer}") for layer in
                                 ("combinat", "algebras", "linalg", "reps", "checks", "cli")})


def run_pass(ops, outcome: dict, tracer=None, collect: bool = False) -> tuple[float, list]:
    """Run one pass; return the summed time of its operations and its queries.

    The queries are ``(key, seconds)`` pairs.  Consecutive operations with the
    same query key add up to one query; an operation whose key is None is a
    query of its own.  With ``collect``, a full garbage collection runs
    (untimed) before each operation, so a collection left over from one
    operation does not land in the next one's time.
    """
    from workloads import RIGHT, UNDECIDED

    total = 0.0
    queries: list[list] = []
    for label, run, check, query in ops:
        if collect:
            gc.collect()
        if tracer is not None:
            tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            result = run()
            error = None
        except Exception as exc:  # a raising operation is a wrong answer, not a crash
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        total += dt
        if query is not None and queries and queries[-1][0] == query:
            queries[-1][1] += dt
        else:
            queries.append([query, dt])
        verdict = check(result) if error is None else "wrong"
        outcome["attempted"] += 1
        if verdict == UNDECIDED:
            outcome["undecided"] += 1
        elif verdict != RIGHT:
            outcome["failed"] += 1
            if outcome["failed"] <= 3:
                why = f"{type(error).__name__}: {error}" if error is not None else verdict
                print(f"failed: {label} ({why})", file=sys.stderr)
    return total, queries


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hinak" / "__init__.py").is_file():
        print(f"error: no hinak sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # desk-scale warnings from run_suite
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    # set-up: import, build the algebras, generate the first pass; repeated, median reported
    setup_times = []
    for _ in range(SETUP_REPEATS):
        hk = wl = first = None  # free the previous copy so peak memory holds one
        gc.collect()
        t0 = time.perf_counter()
        hk = import_hinak()
        wl = cls(hk, args.seed)
        first = wl.ops(0)
        setup_times.append(time.perf_counter() - t0)

    outcome = {"attempted": 0, "failed": 0, "undecided": 0}
    collect = wl.kind == "suite"  # a few long operations; too costly for thousands of queries
    if args.trace:
        from tracer import Tracer

        untraced, _ = run_pass(first, outcome, collect=collect)
        again = wl.ops(0)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_pass(again, outcome, tracer, collect=collect)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        # Run the workload's cycle of distinct passes over and over, at least
        # once through, until the next pass would end after --seconds.  A
        # query's latency is the mean of its repeats: the shared host runs for
        # tens of seconds at a time at one of two speeds, and a median or
        # minimum over a few repeats flips between them where a mean moves in
        # proportion.
        passes = [first]
        samples: dict = {}  # query key -> its times, one per time round the cycle
        start = time.perf_counter()
        i = 0
        while True:
            c = i % wl.cycle
            if c == len(passes):
                passes.append(wl.ops(c))
            _, queries = run_pass(passes[c], outcome, collect=collect)
            for j, (key, dt) in enumerate(queries):
                samples.setdefault((c, j) if key is None else key, []).append(dt)
            i += 1
            elapsed = time.perf_counter() - start
            if i >= wl.cycle and elapsed * (1 + 1 / i) > args.seconds:
                break
        latencies = [statistics.fmean(times) for times in samples.values()]
        metrics = {
            "wall_s": (sum(latencies), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "query_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "query_p99_ms": (1e3 * percentile(latencies, 99), "ms"),
        }
        print(f"{args.workload} seed {args.seed}: {i} passes, cycle of {wl.cycle}, "
              f"{len(latencies)} distinct queries")

    attempted, failed, undecided = outcome["attempted"], outcome["failed"], outcome["undecided"]
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(f"{'failed_share':44s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} failed)")
    print(f"{'undecided_share':44s} {undecided / attempted:>14.6g} ratio ({undecided} of {attempted} undecided)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
