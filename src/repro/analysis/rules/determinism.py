"""Determinism rules: DET001-DET004.

These encode the repo's core contract: a run is a pure function of
``(mesh, partition, seed)``.  Anything that lets the host environment
(wall clock, process hash seed, object addresses, global RNG state)
leak into event ordering or numerics breaks golden fingerprints,
chaos-campaign replay, and bitwise-exact recovery.

Each rule is a walk of one module's AST and reports the direct site
only.  A caller of a function holding a finding is not flagged: the
site is fixed or blessed (``# repro: allow[RULE]``) where it is, and a
blessed site makes no caller impure.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import ModuleInfo, Violation
from .base import Rule, dotted_name

__all__ = [
    "ClockReadRule",
    "RngDrawRule",
    "SetIterationOrderRule",
    "IdentitySortKeyRule",
]

#: Wall-clock reads: any of these inside the package makes a run a
#: function of the host, not of its seed.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


class ClockReadRule(Rule):
    """DET001: wall-clock reads inside the simulation package."""

    id = "DET001"
    title = "wall-clock read"
    hint = (
        "virtual time comes from the Simulator's event clock; pass `now` "
        "down from the event loop instead of reading the host clock "
        "(timestamps for reports belong in the caller, outside src/repro)"
        " - a deliberate read is blessed at its site with "
        "`# repro: allow[DET001]`"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        for node, name in mod.calls:
            if name in _WALL_CLOCK:
                yield self.violation(mod, node, f"wall-clock read `{name}()`")


#: Module-level RNG entry points of `random` (global, unseeded state).
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "triangular", "vonmisesvariate",
    "random.seed",
}

#: Legacy numpy global-state RNG entry points.
_NUMPY_GLOBAL = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
    "seed", "binomial", "poisson", "exponential",
}


#: Seedable RNG constructors: only the no-argument form is unseeded.
_SEEDABLE = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "random.Random",
}


class RngDrawRule(Rule):
    """DET002: RNG draws that do not flow from an explicit seed."""

    id = "DET002"
    title = "unseeded RNG"
    hint = (
        "all randomness must flow from one explicitly seeded generator: "
        "`rng = np.random.default_rng(seed)` threaded through as a "
        "parameter (see FaultInjector / random_fault_plan)"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        for node, name in mod.calls:
            if name is None:
                continue
            norm = name.replace("np.", "numpy.", 1)
            if norm in _SEEDABLE:
                if not node.args and not node.keywords:
                    yield self.violation(
                        mod, node,
                        f"`{name}()` without a seed draws entropy from the OS",
                    )
            elif name.startswith("random.") and (
                name.split(".", 1)[1] in _GLOBAL_RANDOM
            ):
                yield self.violation(
                    mod, node, f"global-state RNG call `{name}()`"
                )
            elif norm.startswith("numpy.random.") and (
                norm.rsplit(".", 1)[1] in _NUMPY_GLOBAL
            ):
                yield self.violation(
                    mod, node, f"legacy numpy global RNG call `{name}()`"
                )


#: Call names that feed the event-ordered machinery: the simulator
#: heap, the transport wire, scheduler queues, and trace/commit paths.
_EVENT_SINKS = {
    "push", "send", "enqueue", "schedule", "transmit", "dispatch",
    "heappush", "note", "commit",
}


def _is_sorted_wrapped(node: ast.expr) -> bool:
    """True for ``sorted(...)`` or ``list/tuple(sorted(...))``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "sorted":
            return True
        if node.func.id in ("list", "tuple") and node.args:
            return _is_sorted_wrapped(node.args[0])
    return False


def _set_expr(node: ast.expr, set_names: set[str],
              set_attrs: set[str]) -> str | None:
    """Describe why ``node`` iterates in set order, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return f"`{node.func.id}(...)`"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"the set `{node.id}`"
    if isinstance(node, ast.Attribute):
        name = dotted_name(node)
        if name is not None and name in set_attrs:
            return f"the set attribute `{name}`"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        # d.values()/d.keys() where d is a dict comprehension keyed by
        # iterating a set: the dict inherits the set's order.
        and node.func.attr in ("values", "keys", "items")
    ):
        base = node.func.value
        if isinstance(base, ast.Name) and base.id in set_names:
            return (
                f"`{base.id}.{node.func.attr}()` of a set-ordered mapping"
            )
    return None


def _collect_set_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, nodes: list[ast.AST]
) -> set[str]:
    """Local names provably bound to sets (or set-keyed dicts);
    ``nodes`` is ``fn`` walked."""
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name) and _binds_set(node.value):
                names.add(tgt.id)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and _set_annotation(node.annotation)
        ):
            names.add(node.target.id)
    for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
        if arg.annotation is not None and _set_annotation(arg.annotation):
            names.add(arg.arg)
    return names


def _binds_set(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(value, ast.DictComp):
        # {k: ... for k in <set-expr>}: dict keyed in set order.
        return _binds_set(value.generators[0].iter)
    return False


def _set_annotation(ann: ast.expr) -> bool:
    name = dotted_name(ann.value if isinstance(ann, ast.Subscript) else ann)
    return name in ("set", "frozenset", "Set", "FrozenSet",
                    "typing.Set", "typing.FrozenSet")


def _collect_set_attrs(mod: ModuleInfo) -> set[str]:
    """``self.x`` attributes assigned a set in any ``__init__``."""
    attrs: set[str] = set()
    for node in mod.nodes:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    tgt = sub.targets[0]
                    if (
                        isinstance(tgt, ast.Attribute)
                        and _binds_set(sub.value)
                    ):
                        name = dotted_name(tgt)
                        if name is not None:
                            attrs.add(name)
                elif (
                    isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and _set_annotation(sub.annotation)
                ):
                    name = dotted_name(sub.target)
                    if name is not None:
                        attrs.add(name)
    return attrs


class SetIterationOrderRule(Rule):
    """DET003: set-order iteration feeding event-ordered machinery.

    Python set iteration order depends on element hashes, and hashes
    of str-bearing keys depend on ``PYTHONHASHSEED``: a loop over a
    set whose body schedules events, sends messages, or pushes onto
    shared queues makes *event order* a function of the interpreter's
    hash seed.  The loop body itself is searched for a sink call; a
    helper the body calls is not followed.  Wrapping the iterable in
    ``sorted(...)`` normalizes the order and silences the rule.
    """

    id = "DET003"
    title = "set-order iteration into event machinery"
    hint = (
        "iterate `sorted(the_set)` (or keep a deterministically-ordered "
        "list alongside the set) before scheduling events, sending "
        "messages, or pushing onto shared queues"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        set_attrs: set[str] | None = None
        for fn in mod.functions:
            nodes = list(ast.walk(fn))
            loops = [
                n for n in nodes if isinstance(n, (ast.For, ast.AsyncFor))
                and not _is_sorted_wrapped(n.iter)
            ]
            if not loops:
                continue
            if set_attrs is None:
                set_attrs = _collect_set_attrs(mod)
            set_names = _collect_set_names(fn, nodes)
            for node in loops:
                why = _set_expr(node.iter, set_names, set_attrs)
                if why is None:
                    continue
                sink = _first_sink(node.body, mod)
                if sink is not None:
                    yield self.violation(
                        mod, node,
                        f"iteration over {why} reaches event sink "
                        f"`{sink}` - event order now depends on "
                        "PYTHONHASHSEED",
                    )


def _first_sink(body: list[ast.stmt], mod: ModuleInfo) -> str | None:
    """Name of the first unblessed event-sink call in ``body``."""
    hits = []
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _EVENT_SINKS and not mod.suppressed(
                "DET003", node.lineno
            ):
                hits.append((node.lineno, node.col_offset, name))
    return min(hits)[2] if hits else None


class IdentitySortKeyRule(Rule):
    """DET004: sort/min/max keyed on object identity."""

    id = "DET004"
    title = "identity-based sort key"
    hint = (
        "`id()` is an address: it changes run to run. Sort on a stable "
        "domain key (program id, patch index, sequence number) instead"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        for node, _ in mod.calls:
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name not in ("sorted", "sort", "min", "max", "heapify"):
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if self._uses_id(kw.value):
                    yield self.violation(
                        mod, node,
                        f"`{name}(..., key=...)` keyed on `id()` "
                        "(object identity)",
                    )

    @staticmethod
    def _uses_id(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        for node in ast.walk(key):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                return True
        return False
