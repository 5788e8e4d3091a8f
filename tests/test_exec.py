"""Execution backends (docs/execution.md).

The headline invariant under test: for any (graph, pattern, seed), the
``process`` backend produces *bit-identical* pattern counts to the
``inline`` path, at any worker count — real multiprocess execution
changes where schedulers run, never what they compute. Run alone via
``make exec-check``.
"""

import json
import multiprocessing
import os
import signal as _signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.errors import ConfigurationError
from repro.exec import BACKENDS, InlineBackend, ProcessBackend, make_backend
from repro.exec.worker import worker_main
from repro.faults import FaultPlan
from repro.graph import dataset
from repro.graph.generators import erdos_renyi
from repro.graph.csr import attach_csr, share_csr
from repro.obs import Observability
from repro.patterns import catalog
from repro.systems import KAutomine

pytestmark = pytest.mark.exec

_CLUSTER = ClusterConfig(num_machines=4)


def _mico():
    return dataset("mico", scale=0.3)


def _assert_no_stray_children():
    """Every worker process must be reaped when execute() returns."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        stray = [p for p in multiprocessing.active_children()
                 if p.name.startswith("repro-exec-")]
        if not stray:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker processes leaked: {stray}")


# ======================================================================
# shared-memory CSR export
# ======================================================================
def test_shared_csr_round_trip():
    graph = erdos_renyi(120, 600, seed=3)
    shared = share_csr(graph)
    try:
        attached = attach_csr(shared.handle)
        try:
            assert np.array_equal(attached.graph.indptr, graph.indptr)
            assert np.array_equal(attached.graph.indices, graph.indices)
            assert attached.graph.directed == graph.directed
            for v in (0, 7, 119):
                assert np.array_equal(
                    attached.graph.neighbors(v), graph.neighbors(v)
                )
        finally:
            attached.close()
            attached.close()  # idempotent
    finally:
        shared.unlink()


def test_shared_csr_carries_labels():
    graph = dataset("mico", scale=0.2, labeled=True)
    shared = share_csr(graph)
    try:
        attached = attach_csr(shared.handle)
        try:
            assert np.array_equal(attached.graph.labels, graph.labels)
        finally:
            attached.close()
    finally:
        shared.unlink()


# ======================================================================
# backend selection
# ======================================================================
def test_make_backend_names():
    assert set(BACKENDS) == {"inline", "process"}
    assert make_backend("inline") is None
    backend = make_backend("process", workers=3)
    assert isinstance(backend, ProcessBackend)
    assert backend.workers == 3
    with pytest.raises(ConfigurationError):
        make_backend("thread")


def test_inline_backend_object_matches_no_backend():
    graph = _mico()
    bare = KAutomine(graph, _CLUSTER, graph_name="mico")
    wrapped = KAutomine(graph, _CLUSTER, graph_name="mico",
                        backend=InlineBackend())
    r1 = bare.count_pattern(catalog.clique(3))
    r2 = wrapped.count_pattern(catalog.clique(3))
    assert r1.counts == r2.counts
    assert r1.simulated_seconds == r2.simulated_seconds


# ======================================================================
# inline/process equivalence — the determinism contract
# ======================================================================
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_triangle_counts_identical(workers):
    graph = _mico()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = inline.count_pattern(catalog.clique(3))
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=workers))
    got = proc.count_pattern(catalog.clique(3))
    assert got.counts == expected.counts
    # the simulated cost model is untouched by real execution
    assert got.simulated_seconds == expected.simulated_seconds
    assert got.machine_seconds == expected.machine_seconds
    assert got.network_bytes == expected.network_bytes
    assert got.extra["exec"]["workers"] == min(workers, 4)
    _assert_no_stray_children()


@pytest.mark.parametrize("workers", [2, 4])
def test_motif_census_identical(workers):
    graph = _mico()
    patterns = [catalog.clique(3), catalog.chain(3)]
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = inline.count_patterns(patterns)
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=workers))
    got = proc.count_patterns(patterns)
    assert got.counts == expected.counts
    assert got.simulated_seconds == expected.simulated_seconds
    _assert_no_stray_children()


def test_collector_udf_merges_across_workers():
    graph = dataset("mico", scale=0.25, labeled=True)
    patterns = [catalog.chain(2), catalog.chain(3)]
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected, _ = inline.mni_supports(patterns)
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=2))
    got, _ = proc.mni_supports(patterns)
    assert got == expected
    _assert_no_stray_children()


def test_worker_count_is_clamped_to_machines():
    graph = _mico()
    proc = KAutomine(graph, ClusterConfig(num_machines=2),
                     graph_name="mico", backend=ProcessBackend(workers=16))
    report = proc.count_pattern(catalog.clique(3))
    assert report.extra["exec"]["workers"] == 2


# ======================================================================
# observability merge
# ======================================================================
def test_metrics_merge_matches_inline():
    graph = _mico()
    obs_inline = Observability()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico", obs=obs_inline)
    inline.count_pattern(catalog.clique(3))
    obs_proc = Observability()
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", obs=obs_proc,
                     backend=ProcessBackend(workers=2))
    report = proc.count_pattern(catalog.clique(3))

    def counters(obs):
        # exec.* names measure wall-clock execution, which only the
        # process backend has
        return {
            (name, labels): value
            for name, labels, value in obs.registry.dump()["counters"]
            if not name.startswith("exec.")
        }

    assert counters(obs_proc) == pytest.approx(counters(obs_inline))
    emitted = {name for name, _, _ in obs_proc.registry.dump()["counters"]}
    assert "exec.worker_busy_seconds" in emitted
    exec_extra = report.extra["exec"]
    assert exec_extra["backend"] == "process"
    assert exec_extra["wall_seconds"] > 0.0
    assert len(exec_extra["worker_busy_seconds"]) == 2


# ======================================================================
# guard rails
# ======================================================================
def test_faults_require_inline_backend():
    graph = _mico()
    config = EngineConfig(faults=FaultPlan.parse("crash:m1@chunk=2"))
    proc = KAutomine(graph, _CLUSTER, engine_config=config,
                     graph_name="mico", backend=ProcessBackend(workers=2))
    with pytest.raises(ConfigurationError, match="inline backend"):
        proc.count_pattern(catalog.clique(3))


def test_non_mergeable_udf_is_rejected():
    graph = _mico()
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=2))
    schedule = proc.build_schedule(catalog.clique(3), induced=False)
    with pytest.raises(ConfigurationError, match="merge"):
        proc.engine.run(schedule, udf=lambda emb: None,
                        system="k-automine", app="t", graph_name="mico")


# ======================================================================
# CLI integration
# ======================================================================
def test_cli_process_backend(capsys):
    from repro.__main__ import main

    assert main([
        "count", "--graph", "mico", "--scale", "0.3", "--machines", "4",
        "--pattern", "clique3", "--backend", "process", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "backend=process" in out
    assert "count=" in out
    _assert_no_stray_children()


def test_backend_liveness_configuration():
    backend = make_backend("process", workers=2, heartbeat=0.25,
                           on_worker_death="recover")
    assert backend.heartbeat == 0.25
    assert backend.on_worker_death == "recover"
    with pytest.raises(ConfigurationError, match="heartbeat"):
        ProcessBackend(heartbeat=0.0)
    with pytest.raises(ConfigurationError, match="on_worker_death"):
        ProcessBackend(on_worker_death="shrug")


# ======================================================================
# worker death — liveness detection, fail-fast, lost-worker recovery
# (marked exec_faults so `make exec-faults-check` runs them alone)
# ======================================================================
exec_faults = pytest.mark.exec_faults

_FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="killing one specific worker relies on the fork start method "
           "(the child must inherit the monkeypatched entry point)",
)


def _murdered_worker_main(worker_id, *args, **kwargs):
    """Drop-in worker entry point that hard-kills worker 1 on entry —
    ``os._exit`` skips every cleanup path, like a SIGKILL mid-compute."""
    if worker_id == 1:
        os._exit(137)
    return worker_main(worker_id, *args, **kwargs)


@exec_faults
@_FORK_ONLY
def test_worker_death_fails_fast_with_structured_report(monkeypatch):
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _murdered_worker_main)
    graph = _mico()
    backend = ProcessBackend(workers=2, start_method="fork", heartbeat=0.2)
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    # bounded detection: nowhere near the backend's 600s message budget
    assert time.monotonic() - started < 60.0
    failure = report.failure
    assert failure is not None
    assert failure.outcome.value == "CRASHED"
    assert failure.partial
    assert "137" in failure.message  # the exit code is surfaced
    deaths = [e for e in failure.events if e["kind"] == "worker_death"]
    assert any(
        e["worker"] == 1 and e["machines"] == [1, 3]
        and not e["reexecuted"] for e in deaths
    )
    exec_extra = report.extra["exec"]
    assert exec_extra["on_worker_death"] == "fail"
    assert exec_extra["worker_deaths"] >= 1
    assert exec_extra["heartbeat_checks"] >= 1
    _assert_no_stray_children()


@exec_faults
@_FORK_ONLY
def test_worker_death_recovery_matches_inline(monkeypatch):
    graph = _mico()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = inline.count_pattern(catalog.clique(3))
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _murdered_worker_main)
    backend = ProcessBackend(workers=2, start_method="fork", heartbeat=0.2,
                             on_worker_death="recover")
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    assert time.monotonic() - started < 120.0
    # the lost workers' hosted machines were replayed through the
    # deterministic inline path, so the counts are *complete*
    assert report.counts == expected.counts
    assert report.simulated_seconds == expected.simulated_seconds
    failure = report.failure
    assert failure is not None
    assert failure.outcome.value == "RECOVERED"
    assert not failure.partial
    deaths = [e for e in failure.events if e["kind"] == "worker_death"]
    assert {e["worker"] for e in deaths} >= {1}
    assert all(e["reexecuted"] for e in deaths)
    assert report.extra["exec"]["worker_deaths"] >= 1
    _assert_no_stray_children()


# ======================================================================
# no data plane: the graph is the only shared state, and a worker never
# waits on a peer — so a peer's death cannot stall a survivor
# ======================================================================
def _thread_recording_worker_main(out_dir):
    """Worker entry point recording the name of every thread the worker
    starts into ``out_dir/worker-<id>.json`` (fork only: the child
    inherits the closure)."""

    def recording(worker_id, *args, **kwargs):
        started = []
        original = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            return original(thread)

        threading.Thread.start = start
        try:
            worker_main(worker_id, *args, **kwargs)
        finally:
            threading.Thread.start = original
            (out_dir / f"worker-{worker_id}.json").write_text(
                json.dumps(started))

    return recording


@_FORK_ONLY
def test_process_query_shares_only_the_graph(monkeypatch, tmp_path):
    from repro.graph import csr
    from repro.exec import process

    created = []
    real_shm = csr.shared_memory.SharedMemory

    def recording_shm(name=None, create=False, size=0):
        if create:
            created.append(name)
        return real_shm(name=name, create=create, size=size)

    exported = []
    real_share = process.share_csr

    def recording_share(graph):
        shared = real_share(graph)
        exported.extend(shared.handle.segment_names())
        return shared

    monkeypatch.setattr(csr.shared_memory, "SharedMemory", recording_shm)
    monkeypatch.setattr(process, "share_csr", recording_share)
    monkeypatch.setattr(process, "worker_main",
                        _thread_recording_worker_main(tmp_path))
    graph = _mico()
    expected = KAutomine(graph, _CLUSTER, graph_name="mico").count_pattern(
        catalog.clique(3))
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=2, start_method="fork"))
    report = proc.count_pattern(catalog.clique(3))
    assert report.counts == expected.counts
    # the CSR arrays are the only shared-memory segments of the run
    assert exported and sorted(created) == sorted(exported)
    # no worker starts a thread beyond its result queue's feeder
    for worker_id in (0, 1):
        threads = json.loads(
            (tmp_path / f"worker-{worker_id}.json").read_text())
        assert set(threads) <= {"QueueFeederThread"}, threads
    _assert_no_stray_children()


@exec_faults
def test_worker_sigkill_under_fail_still_collects_the_survivor(monkeypatch):
    # worker 1 SIGKILLs itself after its first checkpoint delta; worker
    # 0 never waits on it, so worker 0's RESULT still arrives and the
    # run ends CRASHED within the liveness bound
    monkeypatch.setenv("REPRO_CHAOS", "worker-kill:1:1")
    graph = _mico()
    backend = ProcessBackend(workers=2, heartbeat=0.2)
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    assert time.monotonic() - started < 60.0
    failure = report.failure
    assert failure.outcome.value == "CRASHED"
    assert failure.partial
    assert f"signal {int(_signal.SIGKILL)}" in failure.message
    assert report.extra["exec"]["reported_workers"] == [0]
    assert report.extra["exec"]["worker_deaths"] == 1
    _assert_no_stray_children()


@exec_faults
def test_worker_sigkill_under_recover_matches_oracle(monkeypatch):
    graph = _mico()
    expected = KAutomine(graph, _CLUSTER, graph_name="mico").count_pattern(
        catalog.clique(3))
    monkeypatch.setenv("REPRO_CHAOS", "worker-kill:1:1")
    backend = ProcessBackend(workers=2, heartbeat=0.2,
                             on_worker_death="recover")
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    assert time.monotonic() - started < 120.0
    assert report.counts == expected.counts
    assert report.failure.outcome.value == "RECOVERED"
    redistribution = report.extra["exec"]["redistribution"]
    # the survivor replayed worker 1's machines; none fell back inline
    assert redistribution["inline_fallback"] == 0
    assert redistribution["workers"] == {0: [1, 3]}
    _assert_no_stray_children()


# ======================================================================
# shared-memory segment allocation — collision retry
# ======================================================================
def test_segment_creation_retries_on_collision(monkeypatch):
    from repro.graph import csr

    attempts = []
    real_shm = csr.shared_memory.SharedMemory

    def colliding(name=None, create=False, size=0):
        attempts.append(name)
        if len(attempts) <= 2:
            raise FileExistsError(name)
        return real_shm(name=name, create=create, size=size)

    monkeypatch.setattr(csr.shared_memory, "SharedMemory", colliding)
    monkeypatch.setattr(csr.time, "sleep", lambda _t: None)
    segment = csr.create_segment(64)
    try:
        assert len(attempts) == 3           # two collisions absorbed
        assert len(set(attempts)) == 3      # fresh nonce per attempt
    finally:
        segment.unlink()
        segment.close()


def test_segment_creation_collision_exhaustion(monkeypatch):
    from repro.graph import csr

    def always_taken(name=None, create=False, size=0):
        raise FileExistsError(name)

    monkeypatch.setattr(csr.shared_memory, "SharedMemory", always_taken)
    monkeypatch.setattr(csr.time, "sleep", lambda _t: None)
    with pytest.raises(ConfigurationError, match="name collisions"):
        csr.create_segment(64)


# ======================================================================
# durable checkpoints under real SIGKILL (chaos subprocess scenarios;
# benchmarks/chaos.py runs the full matrix — these pin the contract
# in-suite at the smallest useful scale)
# ======================================================================
import json as _json
import subprocess
import sys


def _chaos_cli(extra, chaos=None, check=True):
    """Run ``python -m repro count`` on the tiny chaos job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "count", "--graph", "mico",
         "--scale", "0.05", "--machines", "4", "--chunk-bytes", "1024",
         "--no-auto-fit", "--pattern", "clique3", "--metrics", "json",
         *extra],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=240,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"chaos CLI run failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc


def _chaos_report(proc):
    return _json.loads(proc.stdout)["report"]


@exec_faults
def test_resume_after_parent_sigkill_inline(tmp_path):
    oracle = _chaos_report(_chaos_cli([]))
    killed = _chaos_cli(["--checkpoint-dir", str(tmp_path)],
                        chaos="parent-kill:2", check=False)
    assert killed.returncode == -_signal.SIGKILL
    assert (tmp_path / "chunks.log").exists()

    resumed = _chaos_report(_chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--resume"]))
    # counts are the bit-identical contract; simulated timings are
    # approximate on resume (skipped chunks carry no timing)
    assert resumed["counts"] == oracle["counts"]
    stats = resumed["extra"]["checkpoint"]
    assert stats["resumed"]
    assert stats["resumed_roots"] > 0


@exec_faults
def test_resume_after_parent_sigkill_process_backend(tmp_path):
    oracle = _chaos_report(_chaos_cli([]))
    killed = _chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--backend", "process",
         "--workers", "2"],
        chaos="parent-kill:2", check=False)
    assert killed.returncode == -_signal.SIGKILL
    # the SIGKILLed parent left its segment ledger behind
    ledger = tmp_path / "shm.json"
    assert ledger.exists()
    leaked = _json.loads(ledger.read_text())["segments"]
    assert leaked

    resumed = _chaos_report(_chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--backend", "process",
         "--workers", "2", "--resume"]))
    assert resumed["counts"] == oracle["counts"]
    assert resumed["extra"]["checkpoint"]["resumed_roots"] > 0
    # the resumed run reaped the leaked segments and, on its own clean
    # exit, cleared the ledger
    assert not ledger.exists()
    for name in leaked:
        assert not os.path.exists(f"/dev/shm/{name}")


@exec_faults
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_worker_sigkill_redistributes_to_survivors(tmp_path, workers):
    oracle = _chaos_report(_chaos_cli([]))
    # kill after the *first* shipped delta: worker 1 hosts fewer
    # machines at higher worker counts, but always ships at least one
    report = _chaos_report(_chaos_cli(
        ["--backend", "process", "--workers", str(workers),
         "--on-worker-death", "recover", "--heartbeat", "0.2"],
        chaos="worker-kill:1:1"))
    assert report["counts"] == oracle["counts"]
    assert report["failure"]["outcome"] == "RECOVERED"
    redistribution = report["extra"]["exec"]["redistribution"]
    # the acceptance bar: surviving *workers* replayed the lost
    # machines — none fell back to the parent's inline path
    assert redistribution["inline_fallback"] == 0
    assert redistribution["machines"] >= 1
    assert redistribution["workers"]
