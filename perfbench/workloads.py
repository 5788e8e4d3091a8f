"""The benchmark workloads: set-up, timed queries and output checks.

Each workload is driven in two modes. ``measure`` (tracing off) times
set-up and the queries for the end-to-end metrics. ``trace`` installs a
:class:`~tracing.LayerTracer` and an enabled metrics registry, and
alternates untraced with traced queries so the same run also yields the
tracing overhead.

Every query's count, ``simulated_seconds`` and ``network_bytes`` is
compared with ``references.json``; a mismatch is a failed operation.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.exec import ProcessBackend
from repro.graph import datasets
from repro.obs import NULL_TRACER, Observability
from repro.patterns import catalog
from repro.service import MiningServer, QueryRequest, ServiceConfig
from repro.systems import KAutomine

from tracing import LayerTracer

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())
#: where the process backend's workers leave their spans in a traced run
FORK_SPANS = HERE / "results" / "forked"

#: one-shot workloads run k-Automine on this many simulated machines
MACHINES = 8
#: process-backend and service worker processes (the reference host has
#: two CPUs; the run record stores the host's own count)
WORKERS = 2
#: how many times set-up is repeated in a measuring run; ``setup_s`` is
#: the median
SETUP_REPEATS = 3
#: a one-shot run times at least this many queries, whatever ``--seconds``
MIN_QUERIES = 3

#: serve-mix: latency limit of ``serve.slo_frac`` and the arrival rate
SLO_SECONDS = 1.0
ARRIVALS_PER_SECOND = 6.0
#: a serve-mix run whose generator sent its p99 request later than
#: this after its due time is invalid and reports nothing
MAX_LATE_P99_SECONDS = 0.05
#: how long to wait for any one served query before calling it lost
RESULT_TIMEOUT = 120.0

#: registry counts reported by traced runs; they must repeat exactly
REGISTRY_COUNTS = (
    "hds.probes", "hds.hits", "cache.hits", "cache.misses",
    "chunk.created", "chunk.items", "kernel.batched_embeddings",
    "kernel.iep.embeddings", "net.wire_bytes",
)
#: the process backend's own metrics (absent on the inline path)
EXEC_COUNTS = (
    "exec.worker_busy_seconds", "exec.worker_wait_seconds",
    "exec.messages", "exec.bytes_shipped",
)


@dataclass(frozen=True)
class OneShot:
    """One pattern counted repeatedly on a resident system."""

    graph: str
    scale: float
    pattern: str
    workers: int = 0  # 0 = inline backend

    @property
    def reference_key(self) -> str:
        return f"{self.graph}@{self.scale:g}/{self.pattern}"


ONE_SHOT = {
    "tri-wdc": OneShot("wdc", 2.0, "clique3"),
    "chain5-mico": OneShot("mico", 0.2, "chain5"),
    "tri-wdc-proc": OneShot("wdc", 2.0, "clique3", workers=WORKERS),
}

#: serve-mix server shape
SERVE = dict(graph="mico", scale=0.5, machines=4, cores=2, workers=WORKERS)
#: query kind -> (latency class, request fields)
SERVE_KINDS = {
    "triangle": ("short", dict(app="triangle")),
    "clique4": ("short", dict(app="count", pattern="clique4")),
    "motifs3": ("short", dict(app="motifs", size=3)),
    "star3": ("long", dict(app="count", pattern="star3")),
    "motifs4-iep": ("long", dict(app="motifs", size=4, counting="iep")),
}

#: the kinds of one block of arrivals. Every block is this mix in a
#: seeded order. Two clique4/motifs3 per triangle and two motifs4 per
#: star3 put each class median inside one cluster of execution times,
#: not in the gap between two kinds, where it would jump between runs.
MIX_BLOCK = ("triangle", "clique4", "clique4", "motifs3", "motifs3",
             "star3", "motifs4-iep", "motifs4-iep")

WORKLOADS = (*ONE_SHOT, "serve-mix")


def pattern_of(spec: str):
    """``clique3`` / ``chain5`` / ``star3`` -> catalog pattern."""
    family = spec.rstrip("0123456789")
    return getattr(catalog, family)(int(spec[len(family):]))


@dataclass
class Outcome:
    """What one run measured; ``run.py`` turns it into metrics."""

    setup_seconds: list[float] = field(default_factory=list)
    #: per timed query: (kind, latency seconds from due time, execute
    #: seconds, ok and matching its reference)
    queries: list[tuple[str, float, float, bool]] = field(
        default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[dict] = field(default_factory=list)
    #: serve-mix: how late the generator sent each request
    late_seconds: list[float] = field(default_factory=list)
    sent: int = 0
    #: traced runs: what ``run.per_layer`` needs
    layer: dict = field(default_factory=dict)

    def check(self, key: str, ok: bool, counts, simulated, network) -> bool:
        """Count one operation; compare it with its pinned reference."""
        reference = REFERENCES[key]
        observed = {"counts": _canonical(counts),
                    "simulated_seconds": simulated,
                    "network_bytes": int(network)}
        good = ok and observed == reference
        self.attempted += 1
        if not good:
            self.failed += 1
            self.mismatches.append(
                {"reference": key, "ok": ok, "observed": observed})
        return good


def _canonical(counts):
    """Counts in their JSON form (motif censuses key by tuple codes)."""
    if isinstance(counts, dict):
        return {str(k): v for k, v in sorted(counts.items(), key=str)}
    return counts


def registry_value(snapshot: dict, name: str) -> float:
    """Counter sum, or histogram total, of ``name`` in a registry
    snapshot (0 when never emitted)."""
    counters = snapshot.get("counters", {}).get(name)
    if counters is not None:
        return sum(counters.values())
    histograms = snapshot.get("histograms", {}).get(name)
    if histograms is not None:
        return sum(h["total"] for h in histograms.values())
    return 0


# ---------------------------------------------------------------------
# one-shot workloads (closed loop, one client)
# ---------------------------------------------------------------------
def _build_system(spec: OneShot):
    datasets._build.cache_clear()  # every set-up builds the graph anew
    graph = datasets.load_dataset(spec.graph, spec.scale)
    graph.degrees()
    graph.adjacency_keys()
    graph.adjacency_matrix()
    backend = ProcessBackend(workers=spec.workers) if spec.workers else None
    return KAutomine(
        graph, ClusterConfig(num_machines=MACHINES), EngineConfig(),
        graph_name=spec.graph, backend=backend,
    )


def _one_query(system, spec: OneShot, pattern, out: Outcome):
    started = time.perf_counter()
    report = system.count_pattern(pattern)
    wall = time.perf_counter() - started
    good = out.check(spec.reference_key, report.outcome == "OK",
                     report.counts, report.simulated_seconds,
                     report.network_bytes)
    return wall, good


def _setup_one_shot(spec: OneShot, pattern, out: Outcome, started: float):
    system = _build_system(spec)
    _one_query(system, spec, pattern, out)  # untimed warm query
    out.setup_seconds.append(time.perf_counter() - started)
    return system


def measure_one_shot(name: str, seconds: float, process_start: float,
                     out: Outcome) -> None:
    """Set up three times, then time queries for ``seconds``."""
    spec = ONE_SHOT[name]
    pattern = pattern_of(spec.pattern)
    for repeat in range(SETUP_REPEATS):
        system = None  # drop the previous graph before building anew
        system = _setup_one_shot(
            spec, pattern, out,
            process_start if repeat == 0 else time.perf_counter())
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(out.queries) < MIN_QUERIES:
        wall, good = _one_query(system, spec, pattern, out)
        out.queries.append((spec.pattern, wall, wall, good))


def trace_one_shot(name: str, seconds: float, process_start: float,
                   out: Outcome) -> None:
    """Set up once traced, then alternate untraced and traced queries.
    On the process backend the workers' spans are collected too."""
    spec = ONE_SHOT[name]
    pattern = pattern_of(spec.pattern)
    tracer = LayerTracer(FORK_SPANS if spec.workers else None)
    with tracer.installed(), tracer.query("setup"):
        system = _setup_one_shot(spec, pattern, out, process_start)
    untraced: list[float] = []
    traced: list[float] = []
    counts: list[dict] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        system.reconfigure(obs=None)
        wall, good = _one_query(system, spec, pattern, out)
        untraced.append(wall)
        out.queries.append((spec.pattern, wall, wall, good))
        # an enabled registry; the simulated-time tracer stays off
        obs = Observability(tracer=NULL_TRACER)
        system.reconfigure(obs=obs)
        query_id = f"q{len(traced)}"
        with tracer.installed(), tracer.query(query_id):
            wall, good = _one_query(system, spec, pattern, out)
        traced.append(wall)
        if spec.workers:
            tracer.collect_forked()
        snapshot = obs.registry.snapshot()
        counts.append({n: registry_value(snapshot, n)
                       for n in REGISTRY_COUNTS + EXEC_COUNTS})
    out.layer = {
        "tracer": tracer,
        "setup_ids": ["setup"],
        "query_ids": [f"q{i}" for i in range(len(traced))],
        "query_walls": traced,
        # every traced query runs the same work: report one query's
        # counts and whether the others repeated them exactly
        "counts": counts[0],
        "counts_repeat": _repeat(counts),
        "overhead_frac": (statistics.median(traced)
                          / statistics.median(untraced)) - 1.0,
    }


# ---------------------------------------------------------------------
# serve-mix (open loop of Poisson arrivals against a resident server)
# ---------------------------------------------------------------------
def arrivals(seed: int, seconds: float) -> list[tuple[float, str, int]]:
    """``(due offset, kind, priority)`` per request, from ``seed`` only.

    Arrivals are Poisson at :data:`ARRIVALS_PER_SECOND`. Kinds are drawn
    as shuffled copies of :data:`MIX_BLOCK`, so each seed sends the same
    mix in a different order and the per-class medians do not move with
    the seed's luck.
    """
    rng = random.Random(seed)
    schedule = []
    block: list[str] = []
    due = rng.expovariate(ARRIVALS_PER_SECOND)
    while due < seconds:
        if not block:
            block = list(MIX_BLOCK)
            rng.shuffle(block)
        schedule.append((due, block.pop(), rng.randrange(10)))
        due += rng.expovariate(ARRIVALS_PER_SECOND)
    return schedule


def _check_served(report, kind: str, out: Outcome) -> bool:
    document = report.report or {}
    return out.check(
        f"serve/{kind}", report.ok, report.counts,
        document.get("simulated_seconds"), document.get("network_bytes", 0))


def _start_server(out: Outcome, started: float, metrics: bool = False):
    """Start a server and warm every lane with one query per kind."""
    datasets._build.cache_clear()
    server = MiningServer(ServiceConfig(**SERVE, metrics=metrics)).start()
    for kind, (_, fields) in SERVE_KINDS.items():
        # both lanes are idle, so a pair reaches each worker once
        handles = [server.submit(QueryRequest(**fields))
                   for _ in range(WORKERS)]
        for handle in handles:
            _check_served(handle.result(RESULT_TIMEOUT), kind, out)
    out.setup_seconds.append(time.perf_counter() - started)
    return server


def _open_loop(server, schedule, out: Outcome, tracer=None) -> list:
    """Send ``schedule`` on time from this one thread; wait for all."""
    sent = []
    origin = time.perf_counter()
    for index, (offset, kind, priority) in enumerate(schedule):
        delay = origin + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        request = QueryRequest(id=f"{kind}-{index}", priority=priority,
                               **SERVE_KINDS[kind][1])
        late = time.perf_counter() - (origin + offset)
        if tracer is None:
            handle = server.submit(request)
        else:
            with tracer.query(request.id):
                handle = server.submit(request)
        sent.append((kind, late, handle))
    out.sent += len(sent)
    served = []
    for kind, late, handle in sent:
        report = handle.result(RESULT_TIMEOUT)
        good = _check_served(report, kind, out)
        execute = report.wall_seconds - report.queue_seconds
        out.late_seconds.append(late)
        out.queries.append((kind, late + report.wall_seconds, execute, good))
        served.append((kind, report))
    return served


def measure_serve(seconds: float, seed: int, process_start: float,
                  out: Outcome) -> None:
    """Start the server three times, then serve ``seconds`` of load."""
    schedule = arrivals(seed, seconds)
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.shutdown()
            server = None
            server = _start_server(
                out, process_start if repeat == 0 else time.perf_counter())
        _open_loop(server, schedule, out)
    finally:
        if server is not None:
            server.shutdown()


def trace_serve(seconds: float, seed: int, process_start: float,
                out: Outcome) -> None:
    """Half the run untraced, half traced, on two servers fed the same
    schedule; the traced server has per-query metrics enabled."""
    schedule = arrivals(seed, seconds / 2)
    server = _start_server(out, process_start)
    try:
        _open_loop(server, schedule, out)
    finally:
        server.shutdown()
    untraced_short = _class_p50(out.queries, "short")
    out.queries.clear()

    tracer = LayerTracer()
    with tracer.installed():
        with tracer.query("setup"):
            server = _start_server(out, time.perf_counter(), metrics=True)
        try:
            served = _open_loop(server, schedule, out, tracer)
        finally:
            server.shutdown()
    per_request = {}
    for kind, report in served:
        per_request.setdefault(kind, []).append(
            {n: registry_value(report.metrics or {}, n)
             for n in REGISTRY_COUNTS + EXEC_COUNTS})
    requests = [c for group in per_request.values() for c in group]
    counts = {n: sum(c[n] for c in requests) / len(requests)
              for n in REGISTRY_COUNTS + EXEC_COUNTS}
    by_class = {"short": [], "long": []}
    for kind, report in served:
        by_class[SERVE_KINDS[kind][0]].append(
            report.wall_seconds - report.queue_seconds)
    out.layer = {
        "tracer": tracer,
        "setup_ids": ["setup"],
        "query_ids": [report.id for _, report in served],
        "query_walls": [lat for _, lat, _, _ in out.queries],
        "counts": counts,
        # every request of one kind runs the same work
        "counts_repeat": all(_repeat(g) for g in per_request.values()),
        "overhead_frac": _class_p50(out.queries, "short") / untraced_short
        - 1.0,
        "queue_seconds": [report.queue_seconds for _, report in served],
        "execute_seconds": by_class,
        "rejected": sum(1 for _, r in served if r.outcome == "REJECTED"),
    }


def _repeat(counts: list[dict]) -> bool:
    """Whether every query gave the same deterministic registry counts
    (the ``exec.*`` values are wall-clock and never repeat)."""
    return all(c[n] == counts[0][n] for c in counts for n in REGISTRY_COUNTS)


def _class_p50(queries, latency_class: str) -> float:
    return statistics.median(
        latency for kind, latency, _, _ in queries
        if SERVE_KINDS[kind][0] == latency_class)


def class_of(kind: str) -> Optional[str]:
    """A serve-mix kind's latency class; None for one-shot patterns."""
    entry = SERVE_KINDS.get(kind)
    return entry[0] if entry else None
