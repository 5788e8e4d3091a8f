"""Control-plane types of the process backend.

The backend has no data plane: every worker maps the whole graph (a
shared-memory segment or a ``.kcsr`` store) and EXTEND reads it
directly, while the simulated wire cost comes from the cluster's
``NetworkModel`` — so no edge list ever travels between processes.
What remains is control traffic: workers post tagged results to one
shared result queue, and (under ``--on-worker-death recover``) the
parent hands survivors replay work over per-worker control queues.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

# ---------------------------------------------------------------------
# result-queue message kinds: every message a worker posts to the
# parent is a (kind, worker_id, payload) triple with one of these tags
# ---------------------------------------------------------------------
#: compute finished — payload carries counts/report/udf/obs
RESULT = "result"
#: unexpected failure — payload is the formatted traceback text
ERROR = "error"
#: completed-root-chunk delta — payload is ``(pattern, machine, roots,
#: matches)`` with the *absolute* cursor. Workers ship one per root
#: chunk so the parent always knows the fleet's progress: with a
#: checkpoint directory it appends them to the durable log, and on a
#: worker death the redistribution pass uses them to skip the dead
#: worker's completed chunks (docs/execution.md)
CKPT = "ckpt"
#: a redistributed-recovery replay finished — payload has the same
#: shape as a RESULT payload, restricted to the replayed machines
RECOVERY = "recovery"

# ---------------------------------------------------------------------
# control-queue messages (parent -> worker, after the worker's RESULT)
# ---------------------------------------------------------------------
#: no (more) recovery work: leave the control loop and exit
DONE = "__exec_done__"


@dataclass(frozen=True)
class RecoverAssignment:
    """Replay these machines on the receiving (surviving) worker.

    Sent on a survivor's control queue when a peer died under
    ``--on-worker-death recover``. ``resume`` maps
    ``(pattern, machine)`` to the dead worker's last shipped cursor
    ``(roots, matches)``, so the survivor skips chunks the dead worker
    already completed — the same resume mechanism durable checkpoints
    use (docs/faults.md).
    """

    machines: tuple[int, ...]
    resume: dict


@dataclass
class Endpoints:
    """What the parent shares with every worker of one run.

    ``stop`` is the fleet-wide teardown signal; ``controls[w]`` is
    worker ``w``'s control queue (``None`` unless the run recovers
    lost workers); ``parent_pid`` lets a worker notice that the parent
    was SIGKILLed and init adopted it, so an orphan exits within a
    bounded wait instead of waiting on a queue nobody will ever feed.
    """

    stop: object
    controls: Optional[list] = None
    parent_pid: Optional[int] = None

    def stopping(self) -> bool:
        if self.stop.is_set():
            return True
        return (
            self.parent_pid is not None
            and os.getpid() != self.parent_pid
            and os.getppid() != self.parent_pid
        )
