"""Worker-process entry point of the process backend.

Each worker attaches the shared graph, rebuilds its own deterministic
view of the cluster (hash partitioning is pure, so every worker
computes identical partitions), and runs the *unmodified* inline
execution path restricted to the machines it hosts (machine ``m``
lives on worker ``m % num_workers``). Every worker maps the whole
graph, so EXTEND reads remote machines' edge lists directly and a
worker never waits on a peer; the simulated network cost of those
fetches is charged by the cluster's ``NetworkModel`` exactly as on the
inline path. Reusing the engine's hosted entry point wholesale is the
determinism argument in code form: there is no second scheduler
implementation that could drift from the simulated one.

Result protocol on the shared result queue (tag, worker_id, payload):

- ``(RESULT, w, {...})`` — counts, partial report, udf copy,
  observability dump, busy seconds. Posted when the worker's compute
  loop finishes.
- ``(CKPT, w, (pattern, machine, roots, matches))`` — one per
  completed root chunk, carrying the absolute cursor. The parent's
  progress ledger is built from these (durable log and/or
  redistribution resume maps), so they are shipped unconditionally.
- ``(RECOVERY, w, {...})`` — a redistributed replay of a dead peer's
  machines finished; RESULT-shaped payload restricted to them.
- ``(ERROR, w, traceback_text)`` — any unexpected failure. Expected
  engine outcomes (OOM / simulated timeout) are *not* errors: the
  inline path already converts them into a structured
  ``FailureSummary`` on the partial report.

After its RESULT a worker either exits, or — when the run recovers
lost workers — enters a control loop: the parent may hand it
``RecoverAssignment`` work (replay a dead peer's machines against the
shared graph) until the DONE sentinel releases it.

Every exit path closes the shared-memory mapping; the parent is the
only side that ever unlinks the segments.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from queue import Empty
from time import perf_counter

from repro.cluster.cluster import Cluster
from repro.core.engine import KhuzdulEngine
from repro.exec.messages import (
    CKPT,
    DONE,
    ERROR,
    RECOVERY,
    RESULT,
    RecoverAssignment,
)
from repro.graph.csr import attach_csr
from repro.obs import Observability

#: longest single wait of the control loop between re-checks of the
#: fleet stop signal and the parent's liveness
LIVENESS_INTERVAL_SECONDS = 1.0

#: chaos-injection contract (benchmarks/chaos.py): a worker whose id
#: matches ``REPRO_CHAOS=worker-kill:<wid>:<n>`` SIGKILLs itself after
#: shipping its n-th checkpoint delta — a real mid-compute crash at a
#: deterministic chunk boundary
CHAOS_ENV = "REPRO_CHAOS"


def _chaos_kill_threshold(worker_id: int) -> int:
    spec = os.environ.get(CHAOS_ENV, "")
    if spec.startswith("worker-kill:"):
        try:
            _, wid, count = spec.split(":")
            if int(wid) == worker_id:
                return max(1, int(count))
        except ValueError:
            pass
    return 0


class _DeltaSink:
    """Ships completed-chunk cursors to the parent as CKPT messages."""

    def __init__(self, worker_id: int, result_queue) -> None:
        self.worker_id = worker_id
        self.result_queue = result_queue
        self.shipped = 0
        self.kill_after = _chaos_kill_threshold(worker_id)

    def __call__(self, pattern: int, machine: int, roots: int,
                 matches: int) -> None:
        self.result_queue.put(
            (CKPT, self.worker_id, (pattern, machine, roots, matches)))
        self.shipped += 1
        if self.kill_after and self.shipped >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


def _obs_dump(obs) -> dict | None:
    if obs is None:
        return None
    return {
        "metrics": obs.registry.dump(),
        "spans": obs.tracer.spans,
        "dropped": obs.tracer.dropped,
    }


def worker_main(
    worker_id: int,
    num_workers: int,
    handle,
    cluster_config,
    engine_config,
    schedules,
    udf,
    job: tuple[str, str, str],
    obs_enabled: bool,
    endpoints,
    result_queue,
    resume=None,
) -> None:
    system, app, graph_name = job
    try:
        shared = attach_csr(handle)
    except BaseException:
        result_queue.put((ERROR, worker_id, traceback.format_exc()))
        return
    try:
        # the replay path needs a UDF untouched by this worker's own
        # phase-1 merge-ins; snapshot it before compute mutates it
        pristine_udf = pickle.dumps(udf) if udf is not None else None
        cluster = Cluster(shared.graph, cluster_config)
        obs = Observability() if obs_enabled else None
        engine = KhuzdulEngine(cluster, engine_config, obs=obs)
        hosted = {
            machine for machine in range(cluster.num_machines)
            if machine % num_workers == worker_id
        }
        sink = _DeltaSink(worker_id, result_queue)
        started = perf_counter()
        counts, report = engine.execute_hosted(
            schedules, udf, system, app, graph_name,
            hosted=hosted, checkpoint_sink=sink,
            resume={
                key: value for key, value in resume.items()
                if key[1] in hosted
            } if resume else None,
        )
        result_queue.put((RESULT, worker_id, {
            "counts": counts,
            "report": report,
            "udf": udf,
            "busy_seconds": perf_counter() - started,
            "obs": _obs_dump(obs),
        }))
        if endpoints.controls is not None:
            _control_loop(
                worker_id, endpoints, result_queue, shared,
                cluster_config, engine_config, schedules, pristine_udf,
                job, obs_enabled, sink,
            )
    except BaseException:
        result_queue.put((ERROR, worker_id, traceback.format_exc()))
    finally:
        shared.close()


def _control_loop(
    worker_id: int,
    endpoints,
    result_queue,
    shared,
    cluster_config,
    engine_config,
    schedules,
    pristine_udf,
    job: tuple[str, str, str],
    obs_enabled: bool,
    sink: _DeltaSink,
) -> None:
    """Serve redistributed-recovery assignments until DONE.

    Waits are bounded so a parent that dies without sending DONE
    cannot wedge the worker: every timeout re-checks the fleet-wide
    stop event.
    """
    system, app, graph_name = job
    control = endpoints.controls[worker_id]
    while True:
        try:
            message = control.get(timeout=LIVENESS_INTERVAL_SECONDS)
        except Empty:
            if endpoints.stopping():
                return
            continue
        if message == DONE:
            return
        if not isinstance(message, RecoverAssignment):
            raise RuntimeError(
                f"worker {worker_id}: unexpected control message "
                f"{message!r}")
        # a fresh engine per assignment: the phase-1 engine's scheduler
        # state is spent, and the replay must start from the pristine
        # UDF so merged state is counted exactly once
        replay_udf = (
            pickle.loads(pristine_udf) if pristine_udf is not None else None
        )
        cluster = Cluster(shared.graph, cluster_config)
        obs = Observability() if obs_enabled else None
        engine = KhuzdulEngine(cluster, engine_config, obs=obs)
        started = perf_counter()
        counts, report = engine.execute_hosted(
            schedules, replay_udf, system, app, graph_name,
            hosted=set(message.machines), checkpoint_sink=sink,
            resume=dict(message.resume) if message.resume else None,
        )
        payload = {
            "counts": counts,
            "report": report,
            "udf": replay_udf,
            "busy_seconds": perf_counter() - started,
            "obs": _obs_dump(obs),
            "machines": list(message.machines),
        }
        result_queue.put((RECOVERY, worker_id, payload))
