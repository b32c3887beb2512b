"""Protocol rule: PROTO001 - wire events only from the transport.

Reliable delivery holds because *every* remote stream passes through
the transport's seq/ack/retransmit path.  A raw ``msg_arrive`` push
from any other module is a message the transport never sees.  The
rule reports the push site itself; the event vocabulary, counter
ownership and the service's facade boundary are held elsewhere
(DESIGN.md §10).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import ModuleInfo, Violation
from .base import Rule

__all__ = ["WireBypassRule"]

#: The only module allowed to put streams on the wire.
_TRANSPORT_MODULE = "repro.runtime.transport"

#: Event kinds that represent a wire transmission: scheduling one
#: outside the transport bypasses seq stamping, ack tracking,
#: retransmit timers, checksums and the fault-injection hook.
_WIRE_KINDS = {"msg_arrive"}

#: Push entry points whose second argument (or ``kind=``) is the kind.
_PUSH_NAMES = {"push", "_push", "heappush"}


def _pushed_kind(node: ast.Call) -> str | None:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name not in _PUSH_NAMES:
        return None
    args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "kind"]
    for arg in args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


class WireBypassRule(Rule):
    """PROTO001: wire events scheduled outside the transport layer."""

    id = "PROTO001"
    title = "transport bypass"
    hint = (
        "route remote streams through Transport.send(): it stamps the "
        "(src, seq) uid, arms the ack/retransmit timers, computes the "
        "checksum and applies the fault-injection hook; a raw "
        "`sim.push(.., 'msg_arrive', ..)` is invisible to all of that"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        if mod.module == _TRANSPORT_MODULE:
            return
        for node, _ in mod.calls:
            kind = _pushed_kind(node)
            if kind in _WIRE_KINDS:
                yield self.violation(
                    mod, node,
                    f"`{kind!r}` event scheduled outside "
                    f"{_TRANSPORT_MODULE} bypasses the seq/ack path",
                )
