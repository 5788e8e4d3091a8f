"""The process backend: one OS process per group of simulated machines.

Execution plan (docs/execution.md):

1. Export the graph's CSR arrays into shared memory once
   (:mod:`repro.graph.csr`) — workers map them zero-copy.
2. Spawn ``workers`` processes, each running
   :func:`repro.exec.worker.worker_main`: the unmodified inline
   scheduler loop over the machines it hosts (``m % workers``). There
   is no data plane: every worker maps the whole graph, EXTEND reads
   it directly, and the simulated wire cost of each fetch comes from
   the cluster's ``NetworkModel`` — so no worker ever waits on a peer.
3. Collect per-worker results while *watching worker liveness*: every
   ``heartbeat`` seconds without a message, the parent sweeps worker
   exit codes; a dead or silent worker is marked lost. Once every
   worker has reported or been lost, the ``on_worker_death`` policy
   applies — ``fail`` returns a structured ``CRASHED`` report,
   ``recover`` *redistributes* the lost workers' machines across the
   surviving workers (each survivor replays its share against the
   shared graph, resuming past the chunks the dead worker's shipped
   checkpoint deltas already cover) and reports ``RECOVERED`` with
   complete counts. The parent replays inline only machines no
   survivor could cover (survivor died mid-recovery, or no survivors
   at all).
4. Release the survivors and join them. Shared-memory segments are
   unlinked on every exit path — including SIGINT/SIGTERM and
   interpreter exit, via chained signal handlers and an ``atexit``
   hook registered for the duration of the run.

Durability (docs/faults.md): workers ship one ``CKPT`` delta per
completed root chunk — the parent's in-memory progress ledger feeds
redistribution, and with ``checkpoint_dir`` set the parent also owns a
:class:`~repro.faults.durability.CheckpointSession`, appending deltas
to the durable log so a killed run resumes (workers receive the resume
map and skip completed chunks). A ``shm.json`` ledger of live segment
names lets a resumed run reap segments leaked by a SIGKILLed parent.
5. Merge: counts sum; worker partial reports fold through
   ``merge_reports(parallel=True)``; cluster-global fields that need
   cross-worker data (machine finish times, traffic matrix, cache hit
   rate, utilization) are reconstructed here; worker metric/span dumps
   are absorbed into the parent observability bundle; wall-clock
   ``exec.*`` metrics are emitted on top.

Determinism: a machine's scheduler sees the same graph, roots, and
configuration regardless of which process hosts it — so counts are
bit-identical to the inline backend at any worker count (the invariant
``tests/test_exec.py`` pins down). This is also what makes worker-death
recovery exact: re-executing a lost worker's hosted machines
reproduces precisely the results the worker would have returned.
Wall-clock ``exec.*`` readings are the only nondeterministic outputs.

Not supported here (raise :class:`~repro.errors.ConfigurationError`
up front): fault plans (injected crash recovery reassigns roots across
workers, which this backend does not replicate) and non-mergeable
UDFs (a per-worker UDF copy must be foldable via ``udf.merge(other)``,
like :class:`~repro.systems.base.MniDomainCollector`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.core.engine import KhuzdulEngine
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.exec.backend import Backend
from repro.exec.messages import (
    CKPT,
    DONE,
    ERROR,
    RECOVERY,
    RESULT,
    Endpoints,
    RecoverAssignment,
)
from repro.exec.janitor import install_janitor, remove_janitor
from repro.exec.worker import worker_main
from repro.faults import durability
from repro.faults.recovery import (
    FailureSummary,
    Outcome,
    worker_death_event,
    worker_loss_summary,
)
from repro.graph.csr import share_csr
from repro.obs import Observability, names
from repro.systems.base import merge_reports

_HDS_KEYS = ("hits", "probes", "drops")
_FETCH_KEYS = ("local", "remote", "cache", "shared")
_CLOCK_KEYS = ("compute", "scheduler", "cache", "network")

#: the two worker-death policies ``--on-worker-death`` accepts
DEATH_POLICIES = ("fail", "recover")


class _CollectTimeout(Exception):
    """The wall-clock collection budget expired (converted to a
    structured ``TIMEOUT`` report, never raised to callers)."""


@dataclass
class _FleetState:
    """Liveness bookkeeping for one ``execute`` call."""

    #: sweeps of worker exit codes the parent performed
    heartbeat_checks: int = 0
    #: worker_id -> human-readable death reason
    deaths: dict = field(default_factory=dict)
    #: lost workers whose hosted machines were replayed (on survivors
    #: or inline)
    reexecuted: set = field(default_factory=set)


def _error_reason(traceback_text: str) -> str:
    """The last non-empty traceback line — enough to name the failure
    without shipping a full Python traceback into the report."""
    lines = [ln.strip() for ln in traceback_text.splitlines() if ln.strip()]
    return f"uncaught worker error: {lines[-1]}" if lines else \
        "uncaught worker error"


class ProcessBackend(Backend):
    """Real multiprocess execution over shared-memory graph storage."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        timeout: float = 600.0,
        heartbeat: float = 1.0,
        on_worker_death: str = "fail",
    ):
        #: worker-process count; None = one per simulated machine,
        #: always clamped to the machine count (a machine's scheduler
        #: is single-threaded state, it cannot be split further)
        self.workers = workers
        #: multiprocessing start method; None prefers ``fork`` (cheap,
        #: Linux) and falls back to ``spawn`` — worker args are kept
        #: picklable so both work
        self.start_method = start_method
        #: wall-clock budget for collecting worker messages before the
        #: run is declared wedged; expiry yields a structured TIMEOUT
        #: report, never a raised exception
        self.timeout = timeout
        #: liveness-check interval: the parent sweeps worker exit codes
        #: at least this often while idle, so a dead worker is detected
        #: within roughly two heartbeats — never at the full timeout
        if heartbeat <= 0:
            raise ConfigurationError("heartbeat must be positive")
        self.heartbeat = heartbeat
        #: what to do when a worker process dies mid-run: ``fail``
        #: returns a partial CRASHED report once the survivors have
        #: reported; ``recover`` replays the lost workers' hosted
        #: machines on the survivors (counts stay exact)
        if on_worker_death not in DEATH_POLICIES:
            raise ConfigurationError(
                f"on_worker_death must be one of {DEATH_POLICIES}, "
                f"got {on_worker_death!r}"
            )
        self.on_worker_death = on_worker_death

    # ------------------------------------------------------------------
    def execute(self, engine, schedules, udf, system, app, graph_name):
        config = engine.config
        cluster = engine.cluster
        if config.faults is not None and not config.faults.empty:
            raise ConfigurationError(
                "fault injection requires the inline backend: the "
                "process backend does not replicate cross-worker crash "
                "recovery (docs/execution.md)"
            )
        if config.checkpoint_dir is not None and udf is not None:
            raise ConfigurationError(
                "durable checkpoints with a UDF require the inline "
                "backend: per-worker UDF state cannot be snapshotted "
                "consistently across processes (docs/faults.md)"
            )
        self._validate_udf(udf)
        machines = cluster.num_machines
        workers = self.workers if self.workers else machines
        workers = max(1, min(workers, machines))
        obs = engine.obs
        obs.reset()
        cluster.reset_clocks()  # the parent cluster sits idle; keep it clean

        # durable checkpointing: the parent owns the session — workers
        # only ship deltas (docs/faults.md)
        session = None
        resume_state = None
        if config.checkpoint_dir is not None:
            manifest = durability.run_manifest(
                cluster, schedules, config, system, app, graph_name)
            session = durability.CheckpointSession(
                config.checkpoint_dir, manifest, len(schedules),
                every=config.checkpoint_every, resume=config.resume)
            if config.resume:
                durability.reap_stale_segments(config.checkpoint_dir)
                resume_state = session.resume_state()
            session.snapshot_extra = lambda: {
                "udf": None,
                "metrics": obs.registry.dump() if obs.enabled else None,
            }
        #: fleet-wide progress ledger, (pattern, machine) -> absolute
        #: (roots, matches) cursor; feeds redistribution resume maps
        progress: dict = dict(resume_state) if resume_state else {}

        def on_ckpt(pattern, machine, roots, matches):
            key = (pattern, machine)
            if roots > progress.get(key, (0, 0))[0]:
                progress[key] = (roots, matches)
            if session is not None:
                session.record(pattern, machine, roots, matches)

        context = self._context()
        started = perf_counter()
        shared = share_csr(cluster.graph)
        processes = []
        result_queue = None
        endpoints = None
        fleet = _FleetState()

        def unlink_segments():
            # idempotent: the signal/atexit hooks and the finally block
            # may race, and a repeated unlink is tolerated
            try:
                shared.unlink()
            except Exception:  # pragma: no cover - best effort
                pass

        previous_handlers = install_janitor(unlink_segments)
        try:
            result_queue = context.Queue()
            if session is not None:
                durability.write_shm_names(
                    config.checkpoint_dir, shared.handle.segment_names())
            endpoints = Endpoints(
                stop=context.Event(),
                controls=(
                    [context.Queue() for _ in range(workers)]
                    if self.on_worker_death == "recover" else None
                ),
                parent_pid=os.getpid(),
            )
            job = (system, app, graph_name)
            for worker_id in range(workers):
                processes.append(context.Process(
                    target=worker_main,
                    args=(worker_id, workers, shared.handle, cluster.config,
                          config, list(schedules), udf, job, obs.enabled,
                          endpoints, result_queue, resume_state),
                    name=f"repro-exec-{worker_id}",
                    daemon=True,
                ))
            for process in processes:
                process.start()

            try:
                # no worker waits on a peer, so the survivors of a death
                # still finish and report; collection ends once every
                # worker has reported or been marked lost
                results = self._collect(
                    result_queue, processes, set(range(workers)), RESULT,
                    fleet, ckpt=on_ckpt,
                )
            except _CollectTimeout as exc:
                return self._failed_report(
                    engine, system, app, graph_name, len(schedules),
                    workers, perf_counter() - started, fleet,
                    Outcome.TIMEOUT, str(exc),
                )
            if fleet.deaths and self.on_worker_death == "fail":
                return self._failed_report(
                    engine, system, app, graph_name, len(schedules),
                    workers, perf_counter() - started, fleet,
                    Outcome.CRASHED, None, reported=sorted(results),
                )
            entries = [
                {**payload, "worker_id": worker_id, "kind": "result"}
                for worker_id, payload in sorted(results.items())
            ]
            lost = sorted(set(range(workers)) - set(results))
            redistribution = None
            if lost:
                # on_worker_death == "recover": redistribute the lost
                # workers' machines across the survivors; the progress
                # ledger (the dead workers' shipped deltas) lets each
                # replay skip already-completed chunks
                fleet.reexecuted = set(lost)
                try:
                    recovery_entries, redistribution = self._redistribute(
                        result_queue, processes, endpoints, engine,
                        schedules, udf, system, app, graph_name, lost,
                        sorted(results), workers, machines, fleet,
                        progress, on_ckpt,
                    )
                except _CollectTimeout as exc:
                    return self._failed_report(
                        engine, system, app, graph_name, len(schedules),
                        workers, perf_counter() - started, fleet,
                        Outcome.TIMEOUT, str(exc),
                    )
                entries.extend(recovery_entries)
            # release the survivors from their control loops
            if endpoints.controls is not None:
                for control in endpoints.controls:
                    control.put(DONE)
        finally:
            # teardown runs on every path: publish the stop signal so
            # control-loop waits end, unblock feeder threads by
            # draining the result queue, then reap (or terminate) the
            # fleet and unlink the shared-memory graph
            if endpoints is not None:
                endpoints.stop.set()
            self._drain(result_queue)
            for process in processes:
                process.join(timeout=2.0)
            self._drain(result_queue)
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=10.0)
            unlink_segments()
            remove_janitor(unlink_segments, previous_handlers)
            if session is not None:
                durability.clear_shm_names(config.checkpoint_dir)
        wall = perf_counter() - started
        counts, report = self._merge(
            engine, udf, system, app, graph_name, len(schedules),
            workers, entries, wall, fleet, redistribution)
        if session is not None:
            session.finalize()
            report.extra["checkpoint"] = session.stats()
            if obs.enabled:
                scope = obs.registry.scope()
                scope.counter(names.CHECKPOINT_RECORDS).inc(
                    session.records_written)
                scope.counter(names.CHECKPOINT_FLUSHES).inc(session.flushes)
                scope.counter(names.CHECKPOINT_RESUMED_ROOTS).inc(
                    session.stats()["resumed_roots"])
        return counts, report

    # ------------------------------------------------------------------
    def _validate_udf(self, udf) -> None:
        if udf is None:
            return
        if not callable(getattr(udf, "merge", None)):
            raise ConfigurationError(
                "the process backend needs a mergeable UDF: each worker "
                "gets its own copy, so the object must expose "
                "merge(other) to fold them back (plain callables/"
                "closures run on the inline backend only)"
            )
        try:
            pickle.dumps(udf)
        except Exception as exc:
            raise ConfigurationError(
                f"UDF cannot be pickled into worker processes: {exc}"
            ) from exc

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # ------------------------------------------------------------------
    # collection with liveness detection
    # ------------------------------------------------------------------
    def _collect(self, result_queue, processes, pending, tag, fleet,
                 ckpt=None) -> dict:
        """Gather one tagged message per pending worker.

        Every queue wait is bounded by ``heartbeat``; each expiry
        sweeps worker exit codes, so a dead worker is *marked lost*
        within about two heartbeats instead of stalling until the full
        ``timeout``. Collection continues until every pending worker
        has either reported or been marked lost.

        ``ckpt`` consumes checkpoint deltas *before* the pending
        filter: a dying worker's last shipped cursors are exactly what
        redistribution needs, so they must be recorded even once the
        worker is marked lost.
        """
        collected: dict[int, dict] = {}
        expected = len(pending)
        deadline = perf_counter() + self.timeout
        suspects: dict[int, float] = {}
        while pending:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise _CollectTimeout(
                    f"process backend timed out after "
                    f"{self.timeout:.0f}s awaiting {tag!r} messages "
                    f"({len(collected)}/{expected} received)"
                )
            try:
                message = result_queue.get(
                    timeout=min(self.heartbeat, max(0.01, remaining))
                )
            except queue_mod.Empty:
                self._sweep(processes, pending, fleet, suspects)
                continue
            kind, worker_id, payload = message
            if kind == CKPT:
                if ckpt is not None:
                    ckpt(*payload)
                continue
            if worker_id not in pending:
                continue  # late message from a worker already marked lost
            if kind == ERROR:
                self._mark_lost(pending, fleet, worker_id,
                                _error_reason(payload))
            elif kind == tag:
                collected[worker_id] = payload
                pending.discard(worker_id)
                suspects.pop(worker_id, None)
            else:
                raise RuntimeError(
                    f"protocol violation: got {kind!r} while awaiting "
                    f"{tag!r}"
                )
        return collected

    def _sweep(self, processes, pending, fleet, suspects) -> None:
        """One liveness pass over the pending workers' exit codes."""
        fleet.heartbeat_checks += 1
        now = perf_counter()
        grace = max(self.heartbeat, 0.5)
        for worker_id in sorted(pending):
            exitcode = processes[worker_id].exitcode
            if exitcode is None:
                suspects.pop(worker_id, None)
                continue
            first_seen = suspects.setdefault(worker_id, now)
            if exitcode == 0 and now - first_seen < grace:
                # clean exit: give an already-flushed message one grace
                # interval to surface before declaring the worker silent
                continue
            if exitcode == 0:
                reason = "exited silently without reporting"
            elif exitcode > 0:
                reason = f"exited with code {exitcode} before reporting"
            else:
                reason = f"killed by signal {-exitcode} before reporting"
            self._mark_lost(pending, fleet, worker_id, reason)

    @staticmethod
    def _mark_lost(pending, fleet, worker_id, reason) -> None:
        fleet.deaths[worker_id] = reason
        pending.discard(worker_id)

    @staticmethod
    def _drain(result_queue) -> None:
        """Discard undelivered messages so child feeder threads blocked
        on a full pipe can flush and let their processes exit."""
        if result_queue is None:
            return
        while True:
            try:
                result_queue.get_nowait()
            except queue_mod.Empty:
                return
            except (OSError, EOFError):  # pragma: no cover - torn queue
                return

    # ------------------------------------------------------------------
    # lost-worker redistribution (on_worker_death == "recover")
    # ------------------------------------------------------------------
    def _redistribute(self, result_queue, processes, endpoints, engine,
                      schedules, udf, system, app, graph_name, lost,
                      survivors, workers, machines, fleet, progress,
                      ckpt) -> tuple[list[dict], dict]:
        """Round-robin the lost workers' machines across survivors.

        The determinism contract makes the replays exact: the inline
        path, restricted to any machine subset, computes bit-identically
        what the dead worker would have returned — and the progress
        ledger (the dead worker's shipped deltas) lets each survivor
        resume past chunks already completed, seeding their checkpointed
        matches instead of recomputing them. The parent replays inline
        only machines no survivor covered (a survivor died mid-recovery,
        or no survivors exist at all).
        """
        lost_machines = sorted(
            machine for worker_id in lost
            for machine in self._machines_of(worker_id, workers, machines)
        )
        assignment: dict[int, list[int]] = {}
        if survivors:
            for index, machine in enumerate(lost_machines):
                target = survivors[index % len(survivors)]
                assignment.setdefault(target, []).append(machine)
        for worker_id in sorted(assignment):
            hosted = set(assignment[worker_id])
            endpoints.controls[worker_id].put(RecoverAssignment(
                machines=tuple(assignment[worker_id]),
                resume={
                    key: cursor for key, cursor in progress.items()
                    if key[1] in hosted
                },
            ))
        recoveries: dict[int, dict] = {}
        if assignment:
            recoveries = self._collect(
                result_queue, processes, set(assignment), RECOVERY,
                fleet, ckpt=ckpt,
            )
        entries = [
            {**payload, "worker_id": worker_id, "kind": "recovery"}
            for worker_id, payload in sorted(recoveries.items())
        ]
        uncovered = sorted(
            machine
            for worker_id, hosted in assignment.items()
            if worker_id not in recoveries
            for machine in hosted
        ) if survivors else lost_machines
        if uncovered:
            entries.append(self._replay_inline(
                engine, schedules, udf, system, app, graph_name,
                uncovered, progress, ckpt,
            ))
        redistribution = {
            "machines": sum(
                len(hosted) for worker_id, hosted in assignment.items()
                if worker_id in recoveries
            ),
            "workers": {
                worker_id: list(hosted)
                for worker_id, hosted in sorted(assignment.items())
                if worker_id in recoveries
            },
            "inline_fallback": len(uncovered),
        }
        return entries, redistribution

    def _replay_inline(self, engine, schedules, udf, system, app,
                       graph_name, replay_machines, progress,
                       ckpt) -> dict:
        """Parent-side inline replay of machines no survivor covered.

        Mirrors a spawned worker: fresh cluster view, fresh
        observability bundle, pickled UDF copy — resumed past whatever
        the progress ledger already covers.
        """
        parent = engine.cluster
        cluster = Cluster(parent.graph, parent.config)
        obs = Observability() if engine.obs.enabled else None
        recovery_engine = KhuzdulEngine(cluster, engine.config, obs=obs)
        udf_copy = (
            pickle.loads(pickle.dumps(udf)) if udf is not None else None
        )
        hosted = set(replay_machines)
        resume = {
            key: cursor for key, cursor in progress.items()
            if key[1] in hosted
        }
        replay_started = perf_counter()
        counts, report = recovery_engine.execute_hosted(
            schedules, udf_copy, system, app, graph_name,
            hosted=hosted, checkpoint_sink=ckpt, resume=resume or None,
        )
        payload = {
            "counts": counts,
            "report": report,
            "udf": udf_copy,
            "busy_seconds": perf_counter() - replay_started,
            "obs": None,
            "worker_id": None,
            "kind": "inline",
            "machines": list(replay_machines),
        }
        if obs is not None:
            payload["obs"] = {
                "metrics": obs.registry.dump(),
                "spans": obs.tracer.spans,
                "dropped": obs.tracer.dropped,
            }
        return payload

    # ------------------------------------------------------------------
    # structured fail-fast reports (never a bare stall or traceback)
    # ------------------------------------------------------------------
    @staticmethod
    def _machines_of(worker_id: int, workers: int,
                     machines: int) -> list[int]:
        return [m for m in range(machines) if m % workers == worker_id]

    def _death_events(self, fleet, workers, machines) -> list[dict]:
        return [
            worker_death_event(
                worker_id,
                self._machines_of(worker_id, workers, machines),
                reason,
                worker_id in fleet.reexecuted,
            )
            for worker_id, reason in sorted(fleet.deaths.items())
        ]

    def _failed_report(self, engine, system, app, graph_name,
                       num_schedules, workers, wall, fleet, outcome,
                       message, reported=()) -> tuple[list[int], RunReport]:
        machines = engine.cluster.num_machines
        events = self._death_events(fleet, workers, machines)
        if outcome is Outcome.CRASHED:
            failure = worker_loss_summary(events, recovered=False)
        else:
            failure = FailureSummary(outcome, message=message or "",
                                     events=events)
        report = RunReport(
            system=system, app=app, graph_name=graph_name, counts=None,
            simulated_seconds=0.0, num_machines=machines, failure=failure,
        )
        report.extra["exec"] = {
            **self._exec_extra(workers, wall, fleet, events),
            "reported_workers": list(reported),
        }
        obs = engine.obs
        if obs.enabled:
            scope = obs.registry.scope()
            scope.gauge(names.EXEC_WORKERS).set(workers)
            scope.gauge(names.EXEC_WALL_SECONDS).set(wall)
            self._emit_liveness_metrics(scope, fleet)
            report.extra["obs"] = obs.summary()
        return [0] * num_schedules, report

    def _exec_extra(self, workers, wall, fleet, events) -> dict:
        extra = {
            "backend": self.name,
            "workers": workers,
            "wall_seconds": wall,
            "heartbeat_seconds": self.heartbeat,
            "heartbeat_checks": fleet.heartbeat_checks,
            "on_worker_death": self.on_worker_death,
            "worker_deaths": len(fleet.deaths),
        }
        if events:
            extra["worker_death_events"] = events
        return extra

    def _emit_liveness_metrics(self, scope, fleet) -> None:
        scope.gauge(names.EXEC_HEARTBEAT_INTERVAL).set(self.heartbeat)
        scope.counter(names.EXEC_HEARTBEAT_CHECKS).inc(
            fleet.heartbeat_checks
        )
        scope.counter(names.EXEC_WORKER_DEATHS).inc(len(fleet.deaths))

    # ------------------------------------------------------------------
    def _merge(self, engine, udf, system, app, graph_name, num_schedules,
               workers, entries, wall, fleet,
               redistribution=None) -> tuple[list[int], RunReport]:
        """Fold the run's entries — per-worker results plus any
        redistribution replays (machine-disjoint by construction) —
        into one report."""
        ordered = entries
        reports = [entry["report"] for entry in ordered]
        counts = [
            sum(entry["counts"][index] for entry in ordered)
            for index in range(num_schedules)
        ]
        merged = merge_reports(reports, system, app, graph_name,
                               parallel=True)
        machines = engine.cluster.num_machines
        cost = engine.cluster.cost

        # machine finish times need cross-worker data: machine j's clock
        # buckets come from its host worker, but its simulated serve
        # seconds accumulate in *every* worker whose machines fetched
        # from it — the zip-summed breakdowns hold both, so
        # busy = max(clock, serve)
        breakdowns = merged.machine_breakdowns
        machine_seconds = [
            max(
                sum(buckets.get(key, 0.0) for key in _CLOCK_KEYS),
                buckets.get("serve", 0.0),
            )
            for buckets in breakdowns
        ]
        runtime = max(machine_seconds) if machine_seconds else 0.0
        slowest = (
            max(range(len(machine_seconds)),
                key=machine_seconds.__getitem__)
            if machine_seconds else 0
        )

        workers_extra = [entry["report"].extra["_worker"]
                         for entry in ordered]
        traffic = sum(extra["traffic_bytes"] for extra in workers_extra)
        cache_hits = sum(extra["cache_hits"] for extra in workers_extra)
        cache_queries = sum(extra["cache_queries"]
                            for extra in workers_extra)
        num_batches = sum(extra["num_batches"] for extra in workers_extra)

        if udf is not None:
            for entry in ordered:
                if entry["udf"] is not None:
                    udf.merge(entry["udf"])

        failures = [report.failure for report in reports
                    if report.failure is not None]
        failure = min(
            failures,
            key=lambda f: f.machine_id if f.machine_id is not None else -1,
        ) if failures else None
        death_events = []
        if fleet.deaths:
            death_events = self._death_events(fleet, workers, machines)
            if failure is not None and failure.fatal:
                # a fatal simulated outcome (OOM/timeout) wins; the real
                # deaths still land on its event log
                failure.events = list(failure.events) + death_events
            elif fleet.reexecuted:
                failure = worker_loss_summary(death_events, recovered=True)
            # deaths that cost nothing (after every result was in) leave
            # the run clean; they are recorded in extra["exec"] only

        busiest_out = float(traffic.sum(axis=1).max()) if machines else 0.0
        merged.counts = None
        merged.simulated_seconds = runtime
        merged.network_bytes = int(traffic.sum())
        merged.breakdown = {
            key: breakdowns[slowest].get(key, 0.0) for key in _CLOCK_KEYS
        } if breakdowns else {}
        merged.machine_seconds = machine_seconds
        merged.cache_hit_rate = (
            cache_hits / cache_queries if cache_queries else 0.0
        )
        merged.cache_entries = sum(r.cache_entries for r in reports)
        merged.network_utilization = (
            busiest_out / (cost.network_bandwidth * runtime)
            if runtime > 0.0 else 0.0
        )
        merged.peak_memory_bytes = max(r.peak_memory_bytes for r in reports)
        merged.num_machines = machines
        merged.failure = failure
        merged.extra = {
            "hds": {
                key: sum(r.extra["hds"][key] for r in reports)
                for key in _HDS_KEYS
            },
            "fetch_sources": {
                key: sum(r.extra["fetch_sources"][key] for r in reports)
                for key in _FETCH_KEYS
            },
            "chunks": sum(r.extra["chunks"] for r in reports),
            "requests": sum(r.extra["requests"] for r in reports),
            "serve_seconds": (
                max(buckets.get("serve", 0.0) for buckets in breakdowns)
                if breakdowns else 0.0
            ),
        }

        # per-worker busy seconds: recovery replays accrue to the
        # survivor that ran them; the parent's own inline fallback
        # (worker_id None) is reported via the redistribution extra
        busy = [0.0] * workers
        for entry in ordered:
            if entry.get("worker_id") is not None:
                busy[entry["worker_id"]] += entry["busy_seconds"]
        merged.extra["exec"] = {
            **self._exec_extra(workers, wall, fleet, death_events),
            "worker_busy_seconds": busy,
        }
        if redistribution is not None:
            merged.extra["exec"]["redistribution"] = redistribution

        obs = engine.obs
        if obs.enabled:
            for entry in ordered:  # worker-id order keeps spans stable
                dump = entry["obs"]
                if dump is not None:
                    obs.registry.absorb(dump["metrics"])
                    obs.tracer.absorb(dump["spans"], dump["dropped"])
            self._emit_exec_metrics(obs, workers, wall, busy, fleet,
                                    redistribution)
            summary = obs.summary()
            summary["network"] = {
                "per_machine_sent_bytes": [
                    int(traffic[machine].sum())
                    for machine in range(machines)
                ],
                "per_machine_utilization": [
                    (float(traffic[machine].sum())
                     / (cost.network_bandwidth * runtime))
                    if runtime > 0.0 else 0.0
                    for machine in range(machines)
                ],
                "num_batches": num_batches,
            }
            merged.extra["obs"] = summary
        return counts, merged

    def _emit_exec_metrics(self, obs, workers, wall, busy, fleet,
                           redistribution=None) -> None:
        scope = obs.registry.scope()
        scope.gauge(names.EXEC_WORKERS).set(workers)
        scope.gauge(names.EXEC_WALL_SECONDS).set(wall)
        for worker_id, busy_s in enumerate(busy):
            scope.counter(
                names.EXEC_WORKER_BUSY_SECONDS, worker=worker_id
            ).inc(busy_s)
        if redistribution is not None:
            scope.counter(names.RECOVERY_REDISTRIBUTED_MACHINES).inc(
                redistribution["machines"]
            )
        self._emit_liveness_metrics(scope, fleet)
