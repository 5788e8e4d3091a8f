"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tri-wdc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and reports the per-layer metrics
(see README.md). A table of every metric goes to standard output, then,
as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the host,
the per-sample values and their quartiles is written under
``perfbench/results/``.

The program under test is imported from ``src/`` of the checkout this
file sits in and nowhere else. The exit code is 0 only when every
output matched its reference.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: (name, unit) of the end-to-end metrics in BENCHMARK.json, printed
#: and returned by a ``--trace 0`` run of every workload
END_TO_END = (
    ("setup_s", "s"),
    ("query_s", "s"),
    ("serve.short_p50_ms", "ms"),
    ("serve.long_p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: printed and recorded, but not in BENCHMARK.json: both are 0 on a
#: healthy run (failures also show as ``failed`` and the exit code)
#: or on a one-shot workload (no query ends within the 1 s limit)
PRINTED_ONLY = (
    ("serve.slo_frac", "fraction"),
    ("failed_frac", "fraction"),
)

#: (metric, span name, per) of the span-timed per-layer metrics: the
#: value is self seconds per set-up or per traced query (a request on
#: serve-mix), and ``<metric>.n`` is the number of calls seen
SPAN_METRICS = (
    ("graph.build_s", "graph.build", "setup"),
    ("cluster.partition_s", "cluster.partition", "setup"),
    ("patterns.schedule_s", "patterns.schedule", "query"),
    ("core.engine.self_s", "core.engine", "query"),
    ("core.scheduler.self_s", "core.scheduler", "query"),
    ("core.extend.chunk_s", "core.extend", "query"),
    ("core.kernels.extend_s", "core.kernels", "query"),
    ("cluster.network.batch_s", "cluster.network", "query"),
    ("systems.merge_s", "systems.merge", "query"),
    ("exec.execute_s", "exec.execute", "query"),
    ("service.submit_ms", "service.submit", "query"),
)
#: (metric, registry name, unit) of per-query registry values
REGISTRY_METRICS = (
    ("hds.probes", "hds.probes", "count/query"),
    ("chunk.created", "chunk.created", "count/query"),
    ("chunk.items", "chunk.items", "count/query"),
    ("kernel.batched_embeddings", "kernel.batched_embeddings",
     "count/query"),
    ("kernel.iep.embeddings", "kernel.iep.embeddings", "count/query"),
    ("net.wire_bytes", "net.wire_bytes", "bytes/query"),
    ("exec.worker_busy_s", "exec.worker_busy_seconds", "s/query"),
    ("exec.worker_wait_s", "exec.worker_wait_seconds", "s/query"),
    ("exec.messages", "exec.messages", "count/query"),
    ("exec.bytes_shipped", "exec.bytes_shipped", "bytes/query"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a ``--trace 1`` run returns, in order."""
    names = []
    for metric, _, per in SPAN_METRICS:
        unit = "ms" if metric.endswith("_ms") else "s"
        names += [(metric, f"{unit}/{per}"), (f"{metric}.n", "calls")]
    names += [(metric, unit) for metric, _, unit in REGISTRY_METRICS]
    names += [
        ("hds.hit_ratio", "fraction"),
        ("cache.hit_ratio", "fraction"),
        ("service.queue_ms", "ms"),
        ("service.queue.n", "requests"),
        ("service.execute_short_ms", "ms"),
        ("service.execute_long_ms", "ms"),
        ("service.rejected", "requests"),
        ("loadgen.late_p99_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
        ("trace.coverage_frac", "fraction"),
        ("trace.queries", "queries"),
        ("trace.counts_repeat", "bool"),
    ]
    return names


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------
def summary(values) -> dict:
    """Median and quartiles of ``values`` with the sample count."""
    values = list(values)
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "samples": values}


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` at the highest percentile
    with ten samples beyond it. With fewer than 21 samples no such
    percentile lies above the median, and the tail is the upper median
    by nearest rank: the value of one or two slowest samples would move
    from run to run with the host alone."""
    ordered = sorted(values)
    beyond = min(10, (len(ordered) - 1) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def late_p99(seconds) -> float:
    """p99 by nearest rank of the generator's lateness (0 if none)."""
    ordered = sorted(seconds)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, MiB
    (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------
# metrics from one run's outcome
# ---------------------------------------------------------------------
def end_to_end(out) -> dict:
    from workloads import SLO_SECONDS, class_of

    latencies = [latency for _, latency, _, _ in out.queries]
    executes = [execute for _, _, execute, _ in out.queries]
    classes: dict[str, list[float]] = {"short": [], "long": []}
    for kind, latency, _, _ in out.queries:
        latency_class = class_of(kind)
        if latency_class is None:
            # a one-shot stream has one kind, hence one class: both
            # class medians are the median of its latency
            classes["short"].append(latency)
            classes["long"].append(latency)
        else:
            classes[latency_class].append(latency)
    tail_value, percentile, beyond = tail(latencies)
    sent = out.sent or len(out.queries)
    within = sum(1 for _, latency, _, good in out.queries
                 if good and latency <= SLO_SECONDS)
    rows = {
        "setup_s": (statistics.median(out.setup_seconds),
                    summary(out.setup_seconds)),
        "query_s": (statistics.median(executes), summary(executes)),
        "serve.short_p50_ms": (
            1e3 * statistics.median(classes["short"]),
            summary([1e3 * v for v in classes["short"]])),
        "serve.long_p50_ms": (
            1e3 * statistics.median(classes["long"]),
            summary([1e3 * v for v in classes["long"]])),
        "serve.tail_ms": (
            1e3 * tail_value,
            {"n": len(latencies), "percentile": percentile,
             "samples_beyond": beyond}),
        "peak_rss_mb": (peak_rss_mb(), {"n": 1}),
        "serve.slo_frac": (within / sent,
                           {"n": sent, "limit_s": SLO_SECONDS}),
        "failed_frac": (out.failed / out.attempted, {"n": out.attempted}),
    }
    return rows


def per_layer(out) -> dict:
    layer = out.layer
    tracer = layer["tracer"]
    setup = tracer.self_seconds(layer["setup_ids"])
    queries = tracer.self_seconds(layer["query_ids"])
    num_setups = len(layer["setup_ids"])
    num_queries = len(layer["query_ids"])
    rows = {}
    for metric, span, per in SPAN_METRICS:
        seconds, calls = (setup if per == "setup" else queries)[span]
        divisor = num_setups if per == "setup" else num_queries
        scale = 1e3 if metric.endswith("_ms") else 1.0
        rows[metric] = (scale * seconds / divisor,
                        {"n": calls, "per": per, "total_s": seconds})
        rows[f"{metric}.n"] = (calls, {"per": f"{divisor} {per}(s)"})
    counts = layer["counts"]
    for metric, name, _ in REGISTRY_METRICS:
        rows[metric] = (counts[name], {"per": "query"})
    probes = counts["hds.probes"]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    rows["hds.hit_ratio"] = (counts["hds.hits"] / probes if probes else 0.0,
                             {"n": probes})
    rows["cache.hit_ratio"] = (
        counts["cache.hits"] / lookups if lookups else 0.0, {"n": lookups})
    queue = [1e3 * s for s in layer.get("queue_seconds", [])]
    rows["service.queue_ms"] = (statistics.median(queue) if queue else 0.0,
                                summary(queue))
    rows["service.queue.n"] = (len(queue), {})
    for latency_class in ("short", "long"):
        values = [1e3 * s for s in
                  layer.get("execute_seconds", {}).get(latency_class, [])]
        rows[f"service.execute_{latency_class}_ms"] = (
            statistics.median(values) if values else 0.0, summary(values))
    rows["service.rejected"] = (layer.get("rejected", 0), {})
    rows["loadgen.late_p99_ms"] = (1e3 * late_p99(out.late_seconds),
                                   {"n": len(out.late_seconds)})
    rows["trace.overhead_frac"] = (layer["overhead_frac"], {})
    # coverage counts this process's spans only: worker spans run in
    # parallel with them and with each other
    own = tracer.self_seconds(layer["query_ids"], forked=False)
    covered = sum(own[span][0] for _, span, per in SPAN_METRICS
                  if per == "query")
    walls = sum(layer["query_walls"])
    rows["trace.coverage_frac"] = (covered / walls if walls else 0.0,
                                   {"query_wall_s": walls})
    rows["trace.queries"] = (num_queries, {})
    rows["trace.counts_repeat"] = (int(layer["counts_repeat"]), {})
    return rows


# ---------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------
def git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` (the benchmark may run
    in an export without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``multiprocessing`` starts
    for shared memory, so the run leaves no process behind. (Python
    3.11 offers no public call for this.)"""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program under test comes from this checkout's src/ only
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    out = workloads.Outcome()
    try:
        if args.workload == "serve-mix":
            run = (workloads.trace_serve if args.trace
                   else workloads.measure_serve)
            run(args.seconds, args.seed, PROCESS_START, out)
        else:
            run = (workloads.trace_one_shot if args.trace
                   else workloads.measure_one_shot)
            run(args.workload, args.seconds, PROCESS_START, out)
    finally:
        stop_resource_tracker()

    late = late_p99(out.late_seconds)
    if late > workloads.MAX_LATE_P99_SECONDS:
        print("invalid run: the load generator fell behind its schedule "
              f"(late p99 {1e3 * late:.1f} ms)", file=sys.stderr)
        return 3

    if args.trace:
        rows = per_layer(out)
        names = per_layer_names()
    else:
        rows = end_to_end(out)
        names = list(END_TO_END)
    printed = names + ([] if args.trace else list(PRINTED_ONLY))
    for name, unit in printed:
        value, detail = rows[name]
        n = detail.get("n")
        print(f"{name:<28} {value:>16.6g} {unit:<9}"
              + (f" n={n}" if n is not None else ""))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_rev": git_rev(), "host": host(),
        "attempted": out.attempted, "failed": out.failed,
        "mismatches": out.mismatches,
        "late_p99_ms": 1e3 * late,
        "metrics": {name: {"value": rows[name][0], "unit": unit,
                           **rows[name][1]} for name, unit in printed},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = RESULTS / f"{stem}-spans.json"
        spans.write_text(json.dumps(out.layer["tracer"].export()))
        record["spans"] = spans.name
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": rows[name][0], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
