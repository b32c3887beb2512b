"""Snapshot generations: rotation, pruning and corrupt-tail fallback.

A :class:`SnapshotManager` owns one directory of snapshot generations
(``snap-00000001.rsnap``, ``snap-00000002.rsnap``, ...).  The runtime
hands it fully-built state dicts on an event-count cadence; each save
is encoded through the versioned codec, CRC-framed, and published with
the atomic tmp-fsync-rename dance, then old generations beyond ``keep``
are pruned.  On restart :meth:`load_latest` walks generations newest
first and returns the first one that decodes cleanly - a snapshot torn
or corrupted by the crash falls back to the previous generation instead
of wedging the resume.

The manager doubles as the duck-typed persistence hook the engine's
event loop consumes: ``every`` (snapshot cadence in popped events),
``kill_at`` (crash-injection point for the durability harness) - both
counted in popped events and honoured at the first same-timestamp
batch boundary at or past the mark, so a cut always falls between two
handler executions (``state["popped"]`` records where it fell) - an
optional ``app_state`` adapter for host-owned arrays the simulated
programs write through closures (the solver's order record), and
``save()``.
"""

from __future__ import annotations

import os
import re
from typing import Any

import numpy as np

from .._util import ReproError
from .codec import CodecError, atomic_write, decode, encode, frame, unframe

__all__ = ["SnapshotManager", "FluxArrayState"]

_SNAP_RE = re.compile(r"^snap-(\d{8})\.rsnap$")


class FluxArrayState:
    """App-state adapter for the solver's host-owned order record.

    ``SnSolver.build_programs`` returns an
    :class:`~repro.sweep.solver.OrderRecord` whose stamps and clock the
    programs' solve callback writes: the record lives outside every
    runtime layer, so the runtime snapshot cannot see it.  This adapter
    captures a copy at snapshot time and restores it **in place** into
    the freshly built record of the resumed process, whose programs
    already hold its callback.
    """

    def __init__(self, record):
        self.record = record

    def capture(self) -> dict:
        return {"first": self.record.first.copy(), "clock": self.record.clock}

    def restore(self, saved: dict) -> None:
        np.copyto(self.record.first, saved["first"])
        self.record.clock = saved["clock"]


class SnapshotManager:
    """Generation-rotated crash-consistent snapshot store."""

    def __init__(
        self,
        directory: str | os.PathLike,
        every: int = 2000,
        keep: int = 2,
        kill_at: int | None = None,
        app_state: Any = None,
        fsync: bool = True,
    ):
        if every < 1:
            raise ReproError("snapshot cadence must be >= 1 events")
        if keep < 1:
            raise ReproError("must keep at least one snapshot generation")
        self.directory = os.fspath(directory)
        self.every = every
        self.keep = keep
        self.kill_at = kill_at
        self.app_state = app_state
        self.fsync = fsync
        os.makedirs(self.directory, exist_ok=True)
        self.snapshots = 0  # saves performed by this manager
        self.bytes_written = 0
        self._gen = self._latest_gen()

    def _generations(self) -> list[tuple[int, str]]:
        """On-disk generations as sorted ``(gen, filename)`` pairs."""
        out = []
        for name in os.listdir(self.directory):
            m = _SNAP_RE.match(name)
            if m:
                out.append((int(m.group(1)), name))
        out.sort()
        return out

    def _latest_gen(self) -> int:
        gens = self._generations()
        return gens[-1][0] if gens else 0

    def _path(self, gen: int) -> str:
        return os.path.join(self.directory, f"snap-{gen:08d}.rsnap")

    def save(self, state: Any) -> int:
        """Publish one snapshot generation; returns bytes written."""
        self._gen += 1
        data = frame(encode(state))
        n = atomic_write(self._path(self._gen), data, fsync=self.fsync)
        self.snapshots += 1
        self.bytes_written += n
        for gen, name in self._generations():
            if gen <= self._gen - self.keep:
                os.unlink(os.path.join(self.directory, name))
        return n

    def load_latest(self) -> Any | None:
        """Newest decodable snapshot state, or None when none exists.

        A generation that fails magic/CRC/decode checks (torn by the
        crash, or corrupted on disk) is skipped and the previous
        generation is tried - the fallback the durability harness
        exercises explicitly.
        """
        for gen, name in reversed(self._generations()):
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as f:
                    _, payload = unframe(f.read())
                return decode(payload)
            except (OSError, CodecError):
                continue
        return None
