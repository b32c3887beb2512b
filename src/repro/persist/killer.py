"""Host-crash injection harness: kill a run, restart it from disk.

The durability contract is *process-level*: the simulated cluster's
fault tolerance (crashes, drops, partitions) already lives in the
runtime; this module kills the **host process model** instead - the
event loop is cut dead at a seeded popped-event index (no unwinding,
no goodbye snapshot, exactly what ``kill -9`` leaves behind), then a
completely fresh composition restarts from whatever made it to disk
and must finish bitwise-identical to the uninterrupted run.

``factory`` rebuilds the world from scratch - runtime, programs,
patch map, and the host-owned order record - exactly as a restarted
process would re-execute its setup code.  It is called once for the
doomed run and once for the resumed one, so no Python object survives
the "crash".
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable

import numpy as np

from ..runtime.engine_des import HostKilled
from .snapshot import SnapshotManager

__all__ = ["kill_and_resume", "report_fingerprint"]

#: factory() -> (runtime, programs, patch_proc, app_state | None)
Factory = Callable[[], tuple]


def kill_and_resume(
    factory: Factory,
    kill_at: int,
    every: int,
    workdir: str | os.PathLike,
    keep: int = 2,
    fsync: bool = False,
) -> tuple[Any, SnapshotManager, bool]:
    """Run to a seeded kill point, then restart from disk.

    Returns ``(report, manager, killed)``: the final report (of the
    resumed run when the kill fired, of the uninterrupted run when the
    job finished before ``kill_at``), the snapshot manager of the run
    that produced it, and whether the kill actually fired.

    If the kill lands before the first snapshot cadence, the restarted
    process finds an empty snapshot directory and simply re-runs from
    scratch - the degenerate resume, still bitwise-exact.
    """
    rt, progs, patch_proc, app = factory()
    mgr = SnapshotManager(
        workdir, every=every, keep=keep, kill_at=kill_at,
        app_state=app, fsync=fsync,
    )
    try:
        report = rt.run(progs, patch_proc, persist=mgr)
        return report, mgr, False  # finished before the kill point
    except HostKilled:
        pass
    # A fresh process: rebuild everything, trust only the disk.
    rt2, progs2, pp2, app2 = factory()
    mgr2 = SnapshotManager(
        workdir, every=every, keep=keep, app_state=app2, fsync=fsync,
    )
    state = mgr2.load_latest()
    if state is None:
        report = rt2.run(progs2, pp2, persist=mgr2)
    else:
        report = rt2.resume(progs2, pp2, state, persist=mgr2)
    return report, mgr2, True


def report_fingerprint(report, flux: np.ndarray | None = None) -> str:
    """Bitwise fingerprint of a run outcome (harness-side oracle).

    Hashes the exact float hex of the makespan and breakdown, every
    counter the golden fixtures pin, and the raw flux bytes.  Snapshot
    accounting (``snapshots``/``snapshot_bytes``) is deliberately
    excluded: cadence bookkeeping differs between a straight run and a
    kill-resume pair by construction, while everything simulated must
    not.
    """
    parts = [
        report.makespan.hex(),
        report.failover_time.hex(),
        repr(sorted(
            (c, v.hex()) for c, v in report.breakdown.by_category.items()
        )),
    ]
    for f in (
        "events", "executions", "messages", "message_bytes", "local_streams",
        "stream_items", "vertices_solved", "drops", "duplicates", "retries",
        "timeouts", "reexecutions", "checkpoints", "crashes", "nacks",
        "corruptions", "hedged_sends", "speculative_launches", "demotions",
        "forwards", "backpressure_stalls",
    ):
        parts.append(f"{f}={getattr(report, f)}")
    h = hashlib.sha256("|".join(parts).encode())
    if flux is not None:
        h.update(np.ascontiguousarray(flux).tobytes())
    return h.hexdigest()
