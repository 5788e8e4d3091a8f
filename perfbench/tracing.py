"""Wall-clock spans recorded from outside the program.

:class:`LayerTracer` wraps a fixed list of per-query and per-chunk
public functions of ``repro`` (the :data:`TARGETS` table) with timing
shims, records one span per call, and puts every original back on
:meth:`LayerTracer.uninstall`. Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, query)``: ``parent`` is the index
of the enclosing span on the same thread (``-1`` at the top) and
``query`` is the identifier the caller set with :meth:`LayerTracer.query`.
Spans stay in memory until :meth:`LayerTracer.export`. A span's self
time is its duration minus the time its child spans cover; children on
one thread nest strictly, so that is the sum of their durations.

Worker processes forked while the shims are installed inherit them.
Given a ``fork_dir``, a tracer also collects their spans: a
``multiprocessing`` child starts with an empty span list, writes it to
``fork_dir`` when it exits, and :meth:`LayerTracer.collect_forked` reads
it back. The child keeps the query id of the thread that forked it, so
its spans count for the query that started it. Without a ``fork_dir``
(the resident service workers, forked once at server start) the spans
stay in the worker, and those layers are seen only through the registry
counts.

Per-embedding and per-vertex functions (``HorizontalShareTable.probe``,
``EdgeCache.query``, ``ExtendableEmbedding``, ``Chunk.add``) are never
wrapped: a shim there would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import Optional

#: (module, attribute path, span name). An attribute path with a dot is
#: a method on a class; a module-level function is patched in the
#: namespace that calls it, because ``from x import f`` copies the name.
TARGETS = (
    ("repro.graph.datasets", "load_dataset", "graph.build"),
    ("repro.service.server", "load_dataset", "graph.build"),
    ("repro.cluster.cluster", "Cluster.__init__", "cluster.partition"),
    ("repro.systems.automine", "KAutomine.build_schedule",
     "patterns.schedule"),
    ("repro.patterns.schedule", "compile_counting_plan",
     "patterns.schedule"),
    ("repro.core.engine", "compile_counting_plan", "patterns.schedule"),
    ("repro.core.engine", "KhuzdulEngine.run", "core.engine"),
    ("repro.core.engine", "KhuzdulEngine.run_many", "core.engine"),
    ("repro.core.scheduler", "MachineScheduler.run", "core.scheduler"),
    ("repro.core.extend", "ScheduleExtender.extend_chunk", "core.extend"),
    ("repro.core.extend", "ScheduleExtender.iep_chunk", "core.extend"),
    ("repro.core.kernels", "extend_chunk", "core.kernels"),
    ("repro.cluster.network", "NetworkModel.record_fetch_batch",
     "cluster.network"),
    ("repro.exec.process", "merge_reports", "systems.merge"),
    ("repro.exec.process", "ProcessBackend.execute", "exec.execute"),
    ("repro.service.server", "MiningServer.submit", "service.submit"),
)

#: every span name :data:`TARGETS` can produce, in table order
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class LayerTracer:
    """Installs the timing shims and keeps the spans they record."""

    def __init__(self, fork_dir: Optional[Path] = None) -> None:
        #: one ``[name, start, end, parent, query, child_seconds]`` per
        #: call, appended when the call starts
        self.spans: list[list] = []
        #: spans read back from forked workers, in the same form; their
        #: parent indices point into this list
        self.forked: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.fork_dir = fork_dir
        if fork_dir is not None:
            fork_dir.mkdir(parents=True, exist_ok=True)
            for stale in fork_dir.glob("spans-*"):  # an interrupted run's
                stale.unlink()
            mp_util.register_after_fork(self, LayerTracer._after_fork)

    # -- context -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def query(self, query_id: str):
        """Attribute the spans this thread opens inside to ``query_id``."""
        previous = getattr(self._local, "query", None)
        self._local.query = query_id
        try:
            yield
        finally:
            self._local.query = previous

    def _wrap(self, function, name: str):
        spans = self.spans
        stack_of = self._stack
        local = self._local

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            record = [name, perf_counter(), 0.0,
                      stack[-1] if stack else -1,
                      getattr(local, "query", None), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][5] += record[2] - record[1]

        return shim

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = vars(owner)[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- forked workers --------------------------------------------------
    def _after_fork(self) -> None:
        """In a new ``multiprocessing`` child: drop the parent's spans
        and write the child's own when it exits."""
        if not self._patches:
            return
        del self.spans[:]
        self._stack().clear()
        mp_util.Finalize(None, self._write_forked, exitpriority=100)

    def _write_forked(self) -> None:
        path = self.fork_dir / f"spans-{os.getpid()}.json"
        partial = path.with_suffix(".part")
        partial.write_text(json.dumps(self.spans))
        os.replace(partial, path)

    def collect_forked(self) -> None:
        """Move the spans that exited workers wrote into :attr:`forked`."""
        for path in sorted(self.fork_dir.glob("spans-*.json")):
            offset = len(self.forked)
            for span in json.loads(path.read_text()):
                if span[3] >= 0:
                    span[3] += offset
                self.forked.append(span)
            path.unlink()

    # -- results -------------------------------------------------------
    def self_seconds(self, queries, forked: bool = True
                     ) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over spans whose query
        id is in ``queries``; with ``forked``, the workers' spans count
        too (their seconds add up across workers running at once)."""
        wanted = set(queries)
        totals = {name: [0.0, 0] for name in SPAN_NAMES}
        for name, start, end, _, query, child in (
                self.spans + self.forked if forked else self.spans):
            if query in wanted:
                entry = totals[name]
                entry[0] += (end - start) - child
                entry[1] += 1
        return {name: (value[0], value[1]) for name, value in totals.items()}

    def export(self) -> list[dict]:
        """Every span; ``parent`` indexes this list, and ``process``
        tells this process's spans from the workers'."""
        offset = len(self.spans)
        return [
            {"name": name, "start": start, "end": end,
             "parent": parent + shift if parent >= 0 else -1,
             "query": query, "process": process}
            for process, spans, shift in (("main", self.spans, 0),
                                          ("worker", self.forked, offset))
            for name, start, end, parent, query, _ in spans
        ]
