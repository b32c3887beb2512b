"""Offline happens-before checking of recorded runtime traces.

The checker itself lives in the runtime as
:class:`repro.runtime.checker.HbChecker` (its online mode is the
``sanitize=True`` invariant sanitizer; the record vocabulary and race
kinds are documented there).  This module feeds it traces after the
fact - a ``RunReport``'s ``hb_events`` or a JSON dump - and collects
every race instead of raising at the first.
"""

from __future__ import annotations

import json

from ..runtime.checker import CTL, HbChecker, HbRace, SanitizerError
from .engine import SourceError

__all__ = [
    "CTL",
    "HbRace",
    "HbChecker",
    "SanitizerError",
    "check_trace",
    "check_report",
    "dump_hb_json",
    "load_hb_json",
]


def _normalize(events) -> list[tuple[float, str, tuple]]:
    out = []
    for e in events:
        if hasattr(e, "kind"):  # TraceEvent
            detail = getattr(e, "detail", None) or ()
            out.append((e.time, e.kind, tuple(detail)))
        else:  # (time, kind, detail) triple
            t, kind, detail = e
            out.append((float(t), str(kind), tuple(detail)))
    return out


def check_trace(events) -> list[HbRace]:
    """Run the checker over a trace (TraceEvents or raw triples)."""
    chk = HbChecker()
    for t, kind, detail in _normalize(events):
        chk.feed(t, kind, detail)
    return chk.finish()


def check_report(report) -> list[HbRace]:
    """Check one RunReport's recorded HB stream (requires trace=True)."""
    return check_trace(report.hb_events)


def dump_hb_json(events, path: str) -> int:
    """Write the HB records of a trace as JSON; returns record count."""
    records = [
        {"t": t, "kind": kind, "detail": list(detail)}
        for t, kind, detail in _normalize(events)
        if kind.startswith("hb_")
    ]
    with open(path, "w") as fh:
        json.dump({"hb_version": 1, "events": records}, fh, indent=1)
    return len(records)


def load_hb_json(path: str) -> list[tuple[float, str, tuple]]:
    """Load a trace written by :func:`dump_hb_json` (or hand-crafted).

    Raises :class:`~repro.analysis.engine.SourceError` when the file is
    unreadable, is not JSON, or does not hold HB records.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["events"] if isinstance(doc, dict) else doc
        return [
            (float(e["t"]), str(e["kind"]), tuple(e["detail"]))
            for e in events
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SourceError(str(path), 1, f"{type(exc).__name__}: {exc}") from exc
