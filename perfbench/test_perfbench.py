"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Every pattern a workload times is counted once on a reduced-scale copy
of its graph, through the same code path the workload uses, and checked
against the independent brute-force counter. The remaining tests pin
the benchmark's own statistics, load generator and tracer.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import pytest

import run
import tracing
import workloads
from repro.analysis.brute_force import count_embeddings_brute_force
from repro.graph import datasets
from repro.patterns.canonical import canonical_code
from repro.patterns.catalog import motifs
from repro.service import MiningServer, QueryRequest, ServiceConfig

#: reduced scales small enough for the brute-force counter
ONE_SHOT_SCALES = {"wdc": 0.02, "mico": 0.04}
SERVE_SCALE = 0.1


@pytest.mark.parametrize("name", sorted(workloads.ONE_SHOT))
def test_one_shot_pattern_matches_brute_force(name):
    spec = workloads.ONE_SHOT[name]
    small = workloads.OneShot(spec.graph, ONE_SHOT_SCALES[spec.graph],
                              spec.pattern, spec.workers)
    pattern = workloads.pattern_of(spec.pattern)
    report = workloads._build_system(small).count_pattern(pattern)
    graph = datasets.load_dataset(small.graph, small.scale)
    assert report.outcome == "OK"
    assert report.counts == count_embeddings_brute_force(graph, pattern)
    assert report.counts > 0


def _brute_force_census(graph, size: int) -> dict:
    return {str(canonical_code(p)):
            count_embeddings_brute_force(graph, p, induced=True)
            for p in motifs(size)}


def test_serve_kinds_match_brute_force():
    shape = dict(workloads.SERVE, scale=SERVE_SCALE, workers=0)
    graph = datasets.load_dataset("mico", SERVE_SCALE)
    server = MiningServer(ServiceConfig(**shape)).start()
    try:
        for kind, (_, fields) in workloads.SERVE_KINDS.items():
            report = server.submit(QueryRequest(**fields)).result(60)
            assert report.ok, (kind, report.outcome)
            if fields["app"] == "motifs":
                expected = _brute_force_census(graph, fields["size"])
            else:
                pattern = workloads.pattern_of(
                    fields.get("pattern", "clique3"))
                expected = count_embeddings_brute_force(graph, pattern)
            assert report.counts == expected, kind
    finally:
        server.shutdown()


def test_references_cover_every_query():
    keys = {spec.reference_key for spec in workloads.ONE_SHOT.values()}
    keys |= {f"serve/{kind}" for kind in workloads.SERVE_KINDS}
    assert keys == set(workloads.REFERENCES)
    # inline and process backends share one reference: bit-identity
    assert (workloads.ONE_SHOT["tri-wdc"].reference_key
            == workloads.ONE_SHOT["tri-wdc-proc"].reference_key)


def test_check_counts_a_mismatch_as_failed():
    out = workloads.Outcome()
    reference = workloads.REFERENCES["serve/triangle"]
    assert out.check("serve/triangle", True, reference["counts"],
                     reference["simulated_seconds"],
                     reference["network_bytes"])
    assert not out.check("serve/triangle", True, reference["counts"],
                         reference["simulated_seconds"] * 2,
                         reference["network_bytes"])
    assert not out.check("serve/triangle", False, reference["counts"],
                         reference["simulated_seconds"],
                         reference["network_bytes"])
    assert (out.attempted, out.failed) == (3, 2)


def test_arrivals_come_from_the_seed_only():
    first = workloads.arrivals(7, 30.0)
    assert first == workloads.arrivals(7, 30.0)
    assert first != workloads.arrivals(8, 30.0)
    dues = [due for due, _, _ in first]
    assert dues == sorted(dues) and dues[-1] < 30.0
    rate = len(first) / 30.0
    assert 0.6 * workloads.ARRIVALS_PER_SECOND < rate \
        < 1.4 * workloads.ARRIVALS_PER_SECOND
    kinds = [kind for _, kind, _ in first]
    block = len(workloads.MIX_BLOCK)
    for start in range(0, len(kinds) - block + 1, block):
        assert sorted(kinds[start:start + block]) \
            == sorted(workloads.MIX_BLOCK)
    assert set(workloads.MIX_BLOCK) == set(workloads.SERVE_KINDS)
    assert {priority for _, _, priority in first} <= set(range(10))


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail(list(range(1, 201)))
    assert (value, percentile, beyond) == (190, 95.0, 10)
    assert run.tail(list(range(1, 51))) == (40, 80.0, 10)
    # too few samples for ten beyond the median: the upper median
    assert run.tail(list(range(1, 19))) == (10, 100 * 10 / 18, 8)
    assert run.tail([3, 1, 2]) == (2, 100 * 2 / 3, 1)


def test_summary_uses_python_quartiles():
    rng = random.Random(1)
    values = [rng.random() for _ in range(9)]
    record = run.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (record["q1"], record["q3"]) == (q1, q3)
    assert record["median"] == statistics.median(values)
    assert record["n"] == 9


def test_tracer_restores_every_target():
    import repro.core.kernels as kernels
    from repro.core.engine import KhuzdulEngine

    before = (kernels.extend_chunk, vars(KhuzdulEngine)["run"])
    tracer = tracing.LayerTracer()
    with tracer.installed():
        assert kernels.extend_chunk is not before[0]
        assert vars(KhuzdulEngine)["run"].__wrapped__ is before[1]
    assert (kernels.extend_chunk, vars(KhuzdulEngine)["run"]) == before


def test_self_time_excludes_children():
    tracer = tracing.LayerTracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "core.kernels")
    outer = tracer._wrap(lambda: (inner(), time.sleep(0.01)),
                         "core.extend")
    with tracer.query("q0"):
        outer()
    totals = tracer.self_seconds(["q0"])
    assert totals["core.kernels"][1] == totals["core.extend"][1] == 1
    assert 0.02 <= totals["core.kernels"][0] < 0.035
    assert 0.01 <= totals["core.extend"][0] < 0.02
    spans = tracer.export()
    assert [s["parent"] for s in spans] == [-1, 0]
    assert {s["query"] for s in spans} == {"q0"}
    json.dumps(spans)


def test_traced_layers_cover_the_query():
    spec = workloads.OneShot("mico", 0.05, "chain5")
    pattern = workloads.pattern_of(spec.pattern)
    system = workloads._build_system(spec)
    system.count_pattern(pattern)
    tracer = tracing.LayerTracer()
    with tracer.installed(), tracer.query("q0"):
        started = time.perf_counter()
        system.count_pattern(pattern)
        wall = time.perf_counter() - started
    covered = sum(s for s, _ in tracer.self_seconds(["q0"]).values())
    assert covered <= wall
    assert covered > 0.9 * wall


def test_forked_workers_return_their_spans(tmp_path):
    import multiprocessing

    tracer = tracing.LayerTracer(tmp_path)
    work = tracer._wrap(lambda: time.sleep(0.01), "core.kernels")

    def fork_and_wait():
        child = multiprocessing.get_context("fork").Process(target=work)
        child.start()
        child.join()

    with tracer.installed(), tracer.query("q0"):
        tracer._wrap(fork_and_wait, "exec.execute")()
    tracer.collect_forked()
    assert not list(tmp_path.iterdir())
    assert tracer.self_seconds(["q0"], forked=False)["core.kernels"] == (
        0.0, 0)
    seconds, calls = tracer.self_seconds(["q0"])["core.kernels"]
    assert calls == 1 and seconds >= 0.01
    spans = tracer.export()
    assert [(s["name"], s["process"], s["parent"]) for s in spans] == [
        ("exec.execute", "main", -1), ("core.kernels", "worker", -1)]
