"""Wall-clock benchmark of the batched EXTEND kernels (docs/performance.md).

Every other benchmark here reports *simulated* time; this one measures
real seconds. The batched kernel path
(``EngineConfig(extend_mode="batched")``, the default) and the scalar
reference path produce bit-identical counts and simulated measurements
by contract, so the only open question is throughput — this bench runs
triangle, 4-clique, and 5-path counting under both modes (and
optionally under the process backend), asserts the counts match, and
emits one JSON document with the measured wall seconds and speedups.

Two entry points:

- ``pytest benchmarks/bench_wallclock.py`` — the smoke variant
  (tiny graphs, what ``make perf-check`` runs in CI): asserts the
  batched path is at least as fast as scalar and counts agree.
- ``python benchmarks/bench_wallclock.py --out BENCH_PR6.json`` — the
  full sweep over the bundled dataset analogues, including the largest
  (wdc) where the headline requirement is a >= 3x batched-over-scalar
  speedup on triangle counting. ``--smoke`` shrinks it to the CI set;
  ``--gate``/``--gate-auto`` enforce a process-over-inline speedup
  floor on rows with enough work to parallelize.

Each (config, mode) pair is timed best-of-``--repeats`` end-to-end
``count_pattern`` runs on a fresh system, so graph-side lazy caches
(degrees, adjacency bitmap) warm up exactly once per process the same
way for both modes. A process row instead times
:data:`PROCESS_PAIRS` interleaved inline-batched/process pairs,
alternating which side runs
first, and reports the median per-pair speedup with its min and max:
a best-of on each side would let one lucky sample of either pass a
gate that the typical run misses.

``--motifs`` switches to the motif-census sweep instead: full k-motif
censuses on k-GraphPi under ``counting="enumerate"`` vs
``counting="iep"`` (docs/performance.md, "Inclusion–exclusion
counting"). The full sweep is what produces the committed
BENCH_PR9.json, whose 5-motif row must show a >= 3x IEP-over-enumerate
speedup; the smoke variant gates ``make perf-check`` at the
conservative :data:`MOTIF_GATE_FLOOR`.
"""

from __future__ import annotations

import argparse
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.exec import ProcessBackend
from repro.graph import dataset
from repro.patterns import catalog
from repro.systems import KAutomine, KGraphPi, apps

from benchmarks.conftest import BENCH_DIR, SCALE, emit_json, run_once

#: (graph, scale, pattern spec) — the full sweep; wdc/clique3 is the
#: headline row (largest bundled dataset, triangle counting)
_FULL_CONFIGS = (
    ("wdc", 1.0, "clique3"),
    ("livejournal", 1.0, "clique3"),
    ("mico", 1.0, "clique3"),
    ("mico", 1.0, "clique4"),
    ("livejournal", 0.5, "clique4"),
    ("mico", 0.5, "chain5"),
)
#: the CI smoke set: one intersection-heavy and one multi-level pattern
_SMOKE_CONFIGS = (
    ("mico", 0.3, "clique3"),
    ("mico", 0.3, "clique4"),
)
#: process-backend worker counts for the inline-vs-process rows
_WORKER_COUNTS = (4,)
#: interleaved inline/process pairs behind every process row; the
#: speedup gates judge the median of the per-pair ratios
PROCESS_PAIRS = 5
#: simulated machine count shared by every timed run
_NUM_MACHINES = 8
#: the headline inline-vs-process row `make perf-check` gates
_HEADLINE_CONFIG = ("wdc", 1.0, "clique3")
#: rows whose inline-batched wall is below this have too little work
#: to amortize the backend's fixed ~60ms spawn/teardown cost, so
#: process-speedup gates skip them (docs/performance.md)
GATE_MIN_INLINE_SECONDS = 0.2
_OUT = BENCH_DIR / "wallclock.json"

#: (graph, scale, census size) — the motif-census sweep
#: (docs/performance.md, "Inclusion–exclusion counting"); the 5-motif
#: row is the BENCH_PR9.json headline (>= 3x IEP over enumerate)
_MOTIF_FULL_CONFIGS = (
    ("mico", 1.0, 4),
    ("mico", 0.6, 5),
)
#: CI smoke: one small 4-motif census
_MOTIF_SMOKE_CONFIGS = (
    ("mico", 0.3, 4),
)
#: conservative `make perf-check` floor on the IEP-over-enumerate
#: ratio — the measured smoke ratio is ~3x, but wall clocks on shared
#: CI hosts are noisy; the committed BENCH_PR9.json documents the
#: >= 3x headline on the full 5-motif row
MOTIF_GATE_FLOOR = 1.3
_MOTIF_OUT = BENCH_DIR / "wallclock_motifs.json"


def effective_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cpu_info() -> dict:
    """What the speedup numbers were measured on — without this the
    `speedup_over_inline` column is uninterpretable (BENCH_PR5.json
    recorded `cpu_count: 1` with no hint whether that was the box or a
    bug; it was the box)."""
    return {
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": effective_cpus(),
    }


def process_speedup_floor(cpus: Optional[int] = None) -> float:
    """The CPU-aware process-over-inline gate (docs/performance.md).

    4 workers need at least 4 CPUs for the >=2x target to be physically
    reachable; on fewer CPUs the same sweep measures overhead, not
    parallelism, so the floor drops to "breaks even" (2-3 CPUs) or to
    an honest single-core regression bound (1 CPU, where 4 workers
    timeshare one core and can never beat the inline path).
    """
    cpus = effective_cpus() if cpus is None else cpus
    if cpus >= 4:
        return 2.0
    if cpus >= 2:
        return 1.0
    return 0.45


def gate_failures(result: dict, floor: float,
                  min_inline_seconds: float = GATE_MIN_INLINE_SECONDS):
    """Process-speedup gate: every gated row's median pair ratio must
    reach ``floor``.

    Rows with less than ``min_inline_seconds`` of inline-batched work
    are exempt — they measure the backend's fixed spawn cost, not its
    scaling (documented in docs/performance.md).
    """
    failures = []
    for row in result["rows"]:
        if row["batched_wall_seconds"] < min_inline_seconds:
            continue
        for workers, entry in row.get("process", {}).items():
            speedup = entry["speedup_over_inline"]
            if speedup < floor:
                failures.append(
                    f"{row['graph']}/{row['pattern']} at {workers} "
                    f"workers: median speedup_over_inline "
                    f"{speedup:.2f} (min {entry['speedup_min']:.2f}, "
                    f"max {entry['speedup_max']:.2f}) < gate {floor:.2f}"
                )
    return failures


def _pattern(spec: str):
    """``clique3``/``chain5``-style spec -> catalog pattern."""
    return getattr(catalog, spec[:-1])(int(spec[-1]))


def _time_run(graph, graph_name, pattern, mode, backend=None, repeats=3):
    """Best-of-``repeats`` wall seconds of one full counting run."""
    best = None
    report = None
    for _ in range(repeats):
        system = KAutomine(
            graph,
            ClusterConfig(num_machines=_NUM_MACHINES),
            EngineConfig(extend_mode=mode),
            graph_name=graph_name,
            backend=backend,
        )
        started = perf_counter()
        report = system.count_pattern(pattern)
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, report


def _time_process_pairs(graph, graph_name, pattern, workers):
    """Inline-batched vs process wall seconds over
    :data:`PROCESS_PAIRS` interleaved pairs, alternating which side
    runs first so drift on a noisy host hits both sides alike. Returns
    the process row and the last ``{side: report}`` pair (for the
    count cross-checks)."""
    # an untimed inline run first builds the graph's lazy caches
    # (degrees, adjacency bitmap), so no pair's inline side pays them
    _time_run(graph, graph_name, pattern, "batched", repeats=1)
    inline_walls, process_walls, ratios = [], [], []
    reports = {}
    for index in range(PROCESS_PAIRS):
        sides = ["inline", "process"]
        if index % 2:
            sides.reverse()
        walls = {}
        for side in sides:
            backend = (ProcessBackend(workers=workers)
                       if side == "process" else None)
            walls[side], reports[side] = _time_run(
                graph, graph_name, pattern, "batched", backend=backend,
                repeats=1,
            )
        inline_walls.append(walls["inline"])
        process_walls.append(walls["process"])
        ratios.append(walls["inline"] / walls["process"])
    row = {
        "wall_seconds": statistics.median(process_walls),
        "inline_wall_seconds": statistics.median(inline_walls),
        # the gated figure: the median of the per-pair ratios
        "speedup_over_inline": statistics.median(ratios),
        "speedup_min": min(ratios),
        "speedup_max": max(ratios),
        "pairs": PROCESS_PAIRS,
        # the backend clamps workers to the machine count; the
        # effective value is what the speedup was measured with
        "workers_effective": min(workers, _NUM_MACHINES),
    }
    return row, reports


def measure(
    configs,
    repeats: int = 3,
    worker_counts: tuple[int, ...] = (),
) -> dict:
    """Time every config under scalar and batched EXTEND (and the
    process backend when ``worker_counts`` is non-empty)."""
    rows = []
    for graph_name, scale, pattern_spec in configs:
        graph = dataset(graph_name, scale=scale * SCALE)
        pattern = _pattern(pattern_spec)
        scalar_wall, scalar_report = _time_run(
            graph, graph_name, pattern, "scalar", repeats=repeats
        )
        batched_wall, batched_report = _time_run(
            graph, graph_name, pattern, "batched", repeats=repeats
        )
        assert batched_report.counts == scalar_report.counts, (
            f"extend-mode divergence on {graph_name}/{pattern_spec}: "
            f"{batched_report.counts} != {scalar_report.counts}"
        )
        assert (
            batched_report.simulated_seconds
            == scalar_report.simulated_seconds
        ), f"simulated-time divergence on {graph_name}/{pattern_spec}"
        row = {
            "graph": graph_name,
            "scale": scale * SCALE,
            "pattern": pattern_spec,
            "count": scalar_report.counts,
            "simulated_seconds": scalar_report.simulated_seconds,
            "scalar_wall_seconds": scalar_wall,
            "batched_wall_seconds": batched_wall,
            "speedup_batched_over_scalar": (
                scalar_wall / batched_wall if batched_wall else 0.0
            ),
        }
        process = {}
        for workers in worker_counts:
            entry, reports = _time_process_pairs(
                graph, graph_name, pattern, workers)
            report = reports["process"]
            assert report.counts == scalar_report.counts, (
                f"backend divergence on {graph_name}/{pattern_spec}: "
                f"{report.counts} != {scalar_report.counts}"
            )
            process[str(workers)] = entry
        if process:
            row["process"] = process
        rows.append(row)
    return {
        "bench": "wallclock_extend",
        "cpus": cpu_info(),
        "repeats": repeats,
        "rows": rows,
    }


def measure_headline_process(workers: int = 4) -> dict:
    """Inline-batched vs process on the headline config only.

    The fast variant `make perf-check` gates: skips the scalar
    reference (the batched-over-scalar contract is covered by the
    smoke set) and times just the interleaved inline/process pairs
    whose median ratio the process gate judges.
    """
    graph_name, scale, pattern_spec = _HEADLINE_CONFIG
    graph = dataset(graph_name, scale=scale * SCALE)
    pattern = _pattern(pattern_spec)
    entry, reports = _time_process_pairs(graph, graph_name, pattern,
                                         workers)
    report, inline_report = reports["process"], reports["inline"]
    assert report.counts == inline_report.counts, (
        f"backend divergence on {graph_name}/{pattern_spec}: "
        f"{report.counts} != {inline_report.counts}"
    )
    assert report.simulated_seconds == inline_report.simulated_seconds
    return {
        "graph": graph_name,
        "scale": scale * SCALE,
        "pattern": pattern_spec,
        "batched_wall_seconds": entry["inline_wall_seconds"],
        "process": {str(workers): entry},
    }


def _time_census(graph, graph_name, k, counting, backend=None, repeats=2):
    """Best-of-``repeats`` wall seconds of one full ``k``-motif census.

    k-GraphPi, not k-Automine: counting plans compile off GraphPi-style
    schedules with full symmetry restrictions, and the IEP-aware order
    search lives in ``graphpi_schedule`` (docs/performance.md).
    """
    best = None
    report = None
    for _ in range(repeats):
        system = KGraphPi(
            graph,
            ClusterConfig(num_machines=_NUM_MACHINES),
            EngineConfig(counting=counting),
            graph_name=graph_name,
            backend=backend,
        )
        started = perf_counter()
        report = apps.motif_count(system, k)
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, report


def measure_motifs(
    configs,
    repeats: int = 2,
    worker_counts: tuple[int, ...] = (),
) -> dict:
    """Time every census config under ``counting="enumerate"`` and
    ``counting="iep"`` (and under the process backend for both modes
    when ``worker_counts`` is non-empty), asserting the induced censuses
    are identical — IEP is an exact rewrite, never an approximation."""
    rows = []
    for graph_name, scale, k in configs:
        graph = dataset(graph_name, scale=scale * SCALE)
        enum_wall, enum_report = _time_census(
            graph, graph_name, k, "enumerate", repeats=repeats
        )
        iep_wall, iep_report = _time_census(
            graph, graph_name, k, "iep", repeats=repeats
        )
        assert iep_report.counts == enum_report.counts, (
            f"counting divergence on {graph_name}/{k}-MC: "
            f"{iep_report.counts} != {enum_report.counts}"
        )
        row = {
            "graph": graph_name,
            "scale": scale * SCALE,
            "app": f"{k}-MC",
            "motifs": len(enum_report.counts),
            # census dicts are keyed by canonical-code tuples (not
            # JSON keys); values follow the motifs(k) catalog order
            "counts": list(enum_report.counts.values()),
            "enumerate_wall_seconds": enum_wall,
            "iep_wall_seconds": iep_wall,
            "speedup_iep_over_enumerate": (
                enum_wall / iep_wall if iep_wall else 0.0
            ),
        }
        process = {}
        for workers in worker_counts:
            p_enum_wall, p_enum_report = _time_census(
                graph, graph_name, k, "enumerate",
                backend=ProcessBackend(workers=workers), repeats=repeats,
            )
            p_iep_wall, p_iep_report = _time_census(
                graph, graph_name, k, "iep",
                backend=ProcessBackend(workers=workers), repeats=repeats,
            )
            assert p_enum_report.counts == enum_report.counts, (
                f"backend divergence on {graph_name}/{k}-MC (enumerate)"
            )
            assert p_iep_report.counts == enum_report.counts, (
                f"backend divergence on {graph_name}/{k}-MC (iep)"
            )
            process[str(workers)] = {
                "enumerate_wall_seconds": p_enum_wall,
                "iep_wall_seconds": p_iep_wall,
                "speedup_iep_over_enumerate": (
                    p_enum_wall / p_iep_wall if p_iep_wall else 0.0
                ),
                "workers_effective": min(workers, _NUM_MACHINES),
            }
        if process:
            row["process"] = process
        rows.append(row)
    return {
        "bench": "wallclock_motifs",
        "cpus": cpu_info(),
        "repeats": repeats,
        "rows": rows,
    }


def motif_gate_failures(result: dict, floor: float):
    """IEP-ratio gate: every census row (inline and process) must show
    at least ``floor``x IEP-over-enumerate speedup."""
    failures = []
    for row in result["rows"]:
        entries = [("inline", row)] + [
            (f"{workers} workers", entry)
            for workers, entry in row.get("process", {}).items()
        ]
        for where, entry in entries:
            speedup = entry["speedup_iep_over_enumerate"]
            if speedup < floor:
                failures.append(
                    f"{row['graph']}/{row['app']} ({where}): "
                    f"speedup_iep_over_enumerate {speedup:.2f} < "
                    f"gate {floor:.2f}"
                )
    return failures


def test_wallclock_motif_smoke(benchmark):
    """The motif-census leg of ``make perf-check``: IEP terminal
    counting must produce the exact induced census of the enumeration
    oracle (asserted inside :func:`measure_motifs`) and beat it by at
    least :data:`MOTIF_GATE_FLOOR` on the smoke config — the measured
    ratio is ~3x, the gate is deliberately slack for noisy CI hosts."""
    result = run_once(
        benchmark, lambda: measure_motifs(_MOTIF_SMOKE_CONFIGS, repeats=2)
    )
    emit_json(result, _MOTIF_OUT)
    assert result["rows"]
    failures = motif_gate_failures(result, MOTIF_GATE_FLOOR)
    assert not failures, (
        "IEP-over-enumerate ratio gate failed: " + "; ".join(failures)
    )


def test_wallclock_smoke(benchmark):
    """The ``make perf-check`` gate: on the tiny smoke configs the
    batched kernels must not lose to the scalar reference, and both
    must agree exactly (counts are also cross-checked against the
    process backend inside :func:`measure`)."""
    result = run_once(
        benchmark, lambda: measure(_SMOKE_CONFIGS, repeats=3)
    )
    emit_json(result, _OUT)
    assert result["rows"]
    for row in result["rows"]:
        assert row["batched_wall_seconds"] <= row["scalar_wall_seconds"], (
            f"batched EXTEND slower than scalar on "
            f"{row['graph']}/{row['pattern']}: "
            f"{row['batched_wall_seconds']:.4f}s vs "
            f"{row['scalar_wall_seconds']:.4f}s"
        )


def test_wallclock_process_gate():
    """The process backend can never regress silently: the headline
    config (largest bundled graph, triangle counting) must clear the
    CPU-aware speedup floor — >=2x over inline-batched at 4 workers
    given >=4 CPUs, break-even on 2-3, and a bounded single-core
    regression on 1 CPU where 4 workers timeshare one core
    (docs/performance.md explains the tiering). The gated figure is
    the median ratio of interleaved pairs; the failure message shows
    the spread."""
    row = measure_headline_process()
    floor = process_speedup_floor()
    failures = gate_failures({"rows": [row]}, floor,
                             min_inline_seconds=0.0)
    assert not failures, (
        f"process-backend speedup regressed on {effective_cpus()} "
        f"CPUs: {'; '.join(failures)} (pairs: {row['process']})"
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="wall-clock bench of batched vs scalar EXTEND"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the tiny CI config set instead of the full sweep",
    )
    parser.add_argument(
        "--motifs", action="store_true",
        help="run the motif-census sweep (IEP vs enumerate) instead of "
             "the batched-vs-scalar EXTEND sweep; emits BENCH_PR9-style "
             "rows with speedup_iep_over_enumerate",
    )
    parser.add_argument(
        "--motif-gate", type=float, default=None, metavar="FLOOR",
        help="with --motifs: fail (exit 1) if any census row has "
             "speedup_iep_over_enumerate below FLOOR",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per (config, mode); best is reported (default 3)",
    )
    parser.add_argument(
        "--no-process", action="store_true",
        help="skip the process-backend rows",
    )
    parser.add_argument(
        "--out", type=Path, default=_OUT,
        help=f"output JSON path (default {_OUT})",
    )
    parser.add_argument(
        "--gate", type=float, default=None, metavar="FLOOR",
        help="fail (exit 1) if any process row with at least "
             f"{GATE_MIN_INLINE_SECONDS}s of inline-batched work has a "
             "median speedup_over_inline below FLOOR (see also "
             "--gate-auto)",
    )
    parser.add_argument(
        "--gate-auto", action="store_true",
        help="gate with the CPU-aware floor (>=4 CPUs: 2.0, 2-3: 1.0, "
             "1: 0.45) instead of an explicit --gate value",
    )
    parser.add_argument(
        "--gate-min-inline-seconds", type=float,
        default=GATE_MIN_INLINE_SECONDS, metavar="SECONDS",
        help="rows with less inline-batched wall-clock than this are "
             "exempt from --gate (they measure fixed spawn cost, not "
             f"scaling; default {GATE_MIN_INLINE_SECONDS})",
    )
    args = parser.parse_args(argv)
    workers = () if args.no_process else _WORKER_COUNTS
    if args.motifs:
        configs = (
            _MOTIF_SMOKE_CONFIGS if args.smoke else _MOTIF_FULL_CONFIGS
        )
        result = measure_motifs(
            configs, repeats=args.repeats, worker_counts=workers
        )
        out = args.out if args.out != _OUT else _MOTIF_OUT
        emit_json(result, out)
        if args.motif_gate is not None:
            failures = motif_gate_failures(result, args.motif_gate)
            if failures:
                print("IEP-over-enumerate ratio gate FAILED "
                      f"(floor {args.motif_gate:.2f}):")
                for failure in failures:
                    print(f"  {failure}")
                return 1
            print(f"IEP-over-enumerate ratio gate ok "
                  f"(floor {args.motif_gate:.2f})")
        return 0
    configs = _SMOKE_CONFIGS if args.smoke else _FULL_CONFIGS
    result = measure(configs, repeats=args.repeats, worker_counts=workers)
    emit_json(result, args.out)
    floor = args.gate
    if args.gate_auto:
        floor = process_speedup_floor()
    if floor is not None:
        failures = gate_failures(
            result, floor,
            min_inline_seconds=args.gate_min_inline_seconds,
        )
        if failures:
            print("process-speedup gate FAILED "
                  f"(floor {floor:.2f}, cpus {effective_cpus()}):")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"process-speedup gate ok (floor {floor:.2f}, "
              f"cpus {effective_cpus()})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
