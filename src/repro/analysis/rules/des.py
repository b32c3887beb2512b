"""DES rule: DES001 - real-world side effects in simulated callbacks.

The discrete-event simulator models a cluster in *virtual* time; a
callback that performs real I/O or blocks the host (sleep, stdin,
sockets, subprocesses) mixes the two time axes - it slows the wall
clock without advancing the virtual one, and its effects are invisible
to checkpoint/replay.  A "simulated callback" is recognized by the
repo's own convention: any function that takes a ``now`` parameter
(the virtual-time stamp handed down from the event loop) or whose name
is an ``on_<event>`` handler.  A callback is flagged both for I/O in
its own body and for each call through which it reaches I/O elsewhere.
"""

from __future__ import annotations

from .base import EffectRule

__all__ = ["CallbackIoRule"]

_BLOCKING_NAMES = {"open", "input", "print", "breakpoint", "exec", "eval"}

_BLOCKING_DOTTED = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.spawnl",
    "subprocess.run",
    "subprocess.call",
    "subprocess.Popen",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.socket",
    "socket.create_connection",
    "requests.get",
    "requests.post",
    "requests.request",
    "urllib.request.urlopen",
    "sys.stdout.write",
    "sys.stderr.write",
    "sys.stdin.read",
    "sys.stdin.readline",
}


class CallbackIoRule(EffectRule):
    """DES001: real I/O or blocking calls in (or reached from)
    simulated callbacks."""

    id = "DES001"
    title = "real I/O in a simulated callback"
    hint = (
        "simulated callbacks run in virtual time: book the cost on a "
        "Resource timeline and record outcomes on the RunReport; do "
        "file/console I/O in the driver after `run()` returns - or "
        "bless the direct site with `# repro: allow[DES001]` if the "
        "I/O is the layer's contract (e.g. the durability WAL)"
    )
    kind = "io"

    def direct(self, mod, fn, site):
        if not site.note:
            return None  # not inside a callback: only callers can matter
        flavor = (
            "has a virtual-time `now` parameter" if site.note == "now"
            else "an `on_*` event handler"
        )
        return (
            f"`{site.atom[1]}()` inside simulated callback "
            f"`{fn.name}` ({flavor})"
        )

    def applies(self, mod, fn, eff):
        return fn.is_callback

    def reached(self, eff):
        return (
            f"simulated callback reaches `{eff.atom[1]}` "
            f"({len(eff.chain) - 1} hop(s) away)"
        )
