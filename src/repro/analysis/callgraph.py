"""Whole-program module summaries and the call graph (phase 1 + link).

The lint rules (DESIGN.md §10.1) need to see past a single file:
determinism sinks reached through helpers, counter writes laundered
through methods, snapshot coverage resolved through the methods a
``state_dict`` actually calls.  This module is the one detector of
every effect site and supplies the whole-program view in two phases:

**Phase 1 - per-module extraction** (:func:`extract_summary`): each
:class:`~repro.analysis.engine.ModuleInfo` is reduced to a
:class:`ModuleSummary` - function definitions with
their *direct* effect sites and raw call descriptors, class
definitions with their base refs, attribute types and method sets,
plus the event-kind pushes / pop-dispatch comparisons and ``hb_*``
emissions the protocol rules consume.  Statements outside every
scanned function (module level, class bodies, methods of nested
classes) belong to a ``<module>`` pseudo-function, so a top-level
``t = time.time()`` is a site like any other.  Everything
cross-module is left symbolic (absolute dotted refs resolved from the
import table); nothing in a summary depends on any other module.

**Link phase** (:class:`Program`): all summaries are joined into one
program - class hierarchy (linearized base-class order), def-site
resolution for plain calls, receiver typing for method calls
(``self.x.push(...)`` resolves through the attribute types recorded
in phase 1, e.g. ``self.sim = sim`` with an annotated parameter), and
a *bounded* fallback for dynamic dispatch: an unresolvable
``obj.meth(...)`` links to every class shipping ``meth`` when there
are at most :data:`DYNAMIC_FALLBACK_BOUND` candidates, and to nothing
(recorded as unresolved) beyond that - false negatives beat wrong
edges for a repo-local analysis.

Direct effect atoms (the vocabulary the fixed-point engine in
:mod:`repro.analysis.effects` propagates)::

    ("wall", api)          wall-clock read            (DET001 sites)
    ("rng", api)           unseeded RNG               (DET002 sites)
    ("io", api)            real I/O / host blocking   (DES001 sites)
    ("sink", name)         event-sink push            (DET003 sinks)
    ("wire", kind)         wire-kind push outside the transport (PROTO001)
    ("counter", name)      report-counter write outside its owner (PROTO002)
    ("cparam", i, name)    report-counter write on parameter i
    ("swrite", attr)       assignment to self.<attr>
    ("sread", attr)        read of self.<attr>
    ("pwrite", i, attr)    assignment to <param i>.<attr>

Every occurrence is kept as a :class:`Site` (atom, line, column): the
rules report each direct site from this list, while the effect
database de-duplicates to one effect per ``(function, atom)``.

Atoms whose direct site carries the matching ``# repro: allow[RULE]``
suppression are *not* generated: a blessed site does not propagate,
so one suppression at the source silences the whole caller cone.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .engine import ModuleInfo
from .rules.base import dotted_name
from .rules.des import _BLOCKING_DOTTED, _BLOCKING_NAMES
from .rules.determinism import (
    _EVENT_SINKS,
    _GLOBAL_RANDOM,
    _NUMPY_GLOBAL,
    _SEEDABLE,
    _WALL_CLOCK,
)
from .rules.protocol import (
    _EXEMPT_MODULES,
    _REPORT_BASES,
    _TRANSPORT_MODULE,
    _WIRE_KINDS,
    COUNTER_OWNERS,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .effects import EffectDB

__all__ = [
    "DYNAMIC_FALLBACK_BOUND",
    "CallSite",
    "Site",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "Program",
    "extract_summary",
]

#: Max same-name method candidates a receiver-less call may fan out to.
DYNAMIC_FALLBACK_BOUND = 3

#: Call-capable push entry points whose second argument is the kind.
_PUSH_NAMES = {"push", "_push", "heappush"}

#: Name of the pseudo-function owning statements outside every def.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression, classified but unresolved (phase 1)."""

    line: int
    #: "plain" name() | "abs" imported dotted ref | "self" self.m() |
    #: "sattr" self.<attr>.m() | "typed" <known-class var>.m() |
    #: "dyn" unresolved receiver
    kind: str
    target: tuple  # payload, per kind (see _classify_call)
    self_args: tuple[int, ...] = ()  # positions receiving `self`
    param_args: tuple[tuple[int, int], ...] = ()  # (position, caller param idx)
    report_args: tuple[int, ...] = ()  # positions receiving a report base


class Site(NamedTuple):
    """One direct occurrence of an effect atom."""

    atom: tuple
    line: int
    col: int
    #: what the detector saw beyond the atom, for the direct finding's
    #: wording: the RNG flavor ("seedless" / "global" / "legacy") on
    #: ``rng`` sites, the enclosing callback's flavor ("now" / "on",
    #: empty outside a simulated callback) on ``io`` sites.
    note: str = ""


@dataclass
class FunctionSummary:
    """One function/method: params, direct effects, raw call sites."""

    name: str  # "func", "Class.meth" or MODULE_SCOPE
    module: str
    path: str
    line: int
    params: tuple[str, ...]
    is_callback: bool  # has a `now` parameter or is an on_* handler
    #: every direct effect site, in walk order (not de-duplicated)
    atoms: list[Site] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def qname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ClassSummary:
    """One class: bases, receiver types, methods, snapshot coverage."""

    name: str
    module: str
    path: str
    line: int
    bases: tuple[str, ...]  # local name or absolute dotted ref
    #: attribute -> class ref (receiver typing for self.<attr>.m())
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: tuple[str, ...] = ()
    #: attributes excused from snapshot coverage (# repro: transient)
    transient_attrs: tuple[str, ...] = ()
    has_state_dict: bool = False

    @property
    def qname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleSummary:
    """Phase-1 summary of one module: everything the link phase needs."""

    module: str
    path: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: event kinds pushed into a simulator/service heap: [(kind, line)]
    pushed: list[tuple[str, int]] = field(default_factory=list)
    #: event kinds string-compared in a pop-bound dispatch: [(kind, line)]
    handled: list[tuple[str, int]] = field(default_factory=list)
    #: hb_* record kinds emitted via note(): [(kind, line)]
    hb_emits: list[tuple[str, int]] = field(default_factory=list)
    #: attrs marked ``# repro: transient`` on *any* assignment in this
    #: module (covers helper-mediated writes: `win.x = ..` in a
    #: module-level function flows to a class via the call graph, so
    #: the pragma must be honored at the helper site too).
    transient_attrs: tuple[str, ...] = ()


# -- phase 1: extraction ---------------------------------------------------------------


class _Imports:
    """The module's import table: names -> absolute dotted targets."""

    def __init__(self, module: str, is_package: bool):
        self.package = module if is_package else module.rpartition(".")[0]
        self.modules: dict[str, str] = {}  # alias -> absolute module
        self.symbols: dict[str, str] = {}  # name  -> absolute dotted ref

    def _resolve_relative(self, level: int, target: str | None) -> str | None:
        if level == 0:
            return target
        parts = self.package.split(".") if self.package else []
        drop = level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        if target:
            base = base + target.split(".")
        return ".".join(base) if base else None

    def add(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                self.modules[name] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    self.modules[alias.asname] = alias.name
            return
        base = self._resolve_relative(node.level, node.module)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self.symbols[alias.asname or alias.name] = f"{base}.{alias.name}"

    def resolve(self, name: str) -> str | None:
        """Absolute dotted ref for a top-level name, if imported."""
        if name in self.symbols:
            return self.symbols[name]
        if name in self.modules:
            return self.modules[name]
        return None


def _is_report_base(expr: ast.expr) -> bool:
    name = dotted_name(expr)
    return name is not None and name in _REPORT_BASES


def _const_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _push_kind(node: ast.Call) -> tuple[str | None, bool]:
    """(kind, interned) of a push(t, kind, ...) / kind_id(kind) /
    KindRow(kind, handler, ...) call.

    ``interned`` marks ``kind_id`` interning sites and kind-table
    registrations: such a module participates in that kind's protocol
    from *either* side (transport interns to push via ``push_id``, the
    loop dispatches the owner's ``KindRow``), so PROTO004 counts those
    toward both sets.
    """
    fname = None
    if isinstance(node.func, ast.Attribute):
        fname = node.func.attr
    elif isinstance(node.func, ast.Name):
        fname = node.func.id
    if fname in ("kind_id", "KindRow") and len(node.args) >= 1:
        return _const_str(node.args[0]), True
    if fname in _PUSH_NAMES:
        kind = _const_str(node.args[1]) if len(node.args) >= 2 else None
        for kw in node.keywords:
            if kind is None and kw.arg == "kind":
                kind = _const_str(kw.value)
        return kind, False
    return None, False


def _walk_outside(root: ast.AST, skip: Set[int]) -> list[ast.AST]:
    """``ast.walk(root)`` minus the subtrees whose root id is in ``skip``."""
    out: list[ast.AST] = []
    todo = deque([root])
    while todo:
        node = todo.popleft()
        out.append(node)
        todo.extend(
            c for c in ast.iter_child_nodes(node) if id(c) not in skip
        )
    return out


class _FunctionScanner:
    """Extract one scope's sites, calls and protocol facts.

    ``fn`` is a function/method, or None for the ``<module>`` scope:
    every statement outside the separately scanned defs (``skip``).
    """

    def __init__(
        self,
        mod: ModuleInfo,
        imports: _Imports,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        cls: ast.ClassDef | None,
        toplevel: set[str],
        local_classes: set[str],
        skip: Set[int] = frozenset(),
    ):
        self.mod = mod
        self.imports = imports
        self.fn = fn
        self.cls = cls
        self.toplevel = toplevel
        self.local_classes = local_classes
        self.skip = skip
        positional: list[ast.arg] = []
        kwonly: list[ast.arg] = []
        if fn is not None:
            positional = [*fn.args.posonlyargs, *fn.args.args]
            kwonly = fn.args.kwonlyargs
        self.params = tuple(a.arg for a in positional)
        self.param_index = {p: i for i, p in enumerate(self.params)}
        #: "now" (takes the virtual-time stamp), "on" (an on_* event
        #: handler) or "" (not a simulated callback)
        self.callback = ""
        if any(a.arg == "now" for a in positional + kwonly):
            self.callback = "now"
        elif fn is not None and fn.name.startswith("on_"):
            self.callback = "on"
        #: local var -> class ref (receiver typing inside the body)
        self.var_types: dict[str, str] = {}
        for a in positional + kwonly:
            ref = self._annotation_ref(a.annotation)
            if ref is not None:
                self.var_types[a.arg] = ref
        self.atoms: list[Site] = []
        self.calls: list[CallSite] = []
        self.pushed: list[tuple[str, int]] = []
        self.hb_emits: list[tuple[str, int]] = []
        self.handled: list[tuple[str, int]] = []
        self._pop_bound: set[str] = set()

    # -- helpers --------------------------------------------------------------------

    def _annotation_ref(self, ann: ast.expr | None) -> str | None:
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            # Optional[X] / X | None do not type a *receiver* safely;
            # plain names and dotted refs do.
            return None
        if isinstance(ann, ast.BinOp):
            return None
        name = dotted_name(ann)
        if name is None:
            return None
        return self._class_ref(name)

    def _class_ref(self, name: str) -> str | None:
        """Absolute ref for a class name visible in this module."""
        head, _, rest = name.partition(".")
        if not rest and name in self.local_classes:
            return f"{self.mod.module}.{name}"
        resolved = self.imports.resolve(head)
        if resolved is None:
            return None
        return f"{resolved}.{rest}" if rest else resolved

    def _suppressed(self, rule: str, line: int) -> bool:
        return self.mod.suppressed(rule, line)

    def _emit(
        self, atom: tuple, node: ast.AST, rule: str | None, note: str = ""
    ) -> None:
        if rule is not None and self._suppressed(rule, node.lineno):
            return
        self.atoms.append(Site(atom, node.lineno, node.col_offset, note))

    # -- the walk -------------------------------------------------------------------

    def scan(self) -> FunctionSummary:
        nodes = (
            list(ast.walk(self.fn)) if self.fn is not None
            else _walk_outside(self.mod.tree, self.skip)
        )
        # `self.meth(...)` is a call edge, not a state read: skip the
        # func position of every Call when collecting sread atoms.
        func_nodes = {
            id(node.func) for node in nodes if isinstance(node, ast.Call)
        }
        for node in nodes:
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._scan_assign(node)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ) and id(node) not in func_nodes:
                base = node.value
                if isinstance(base, ast.Name) and base.id == "self":
                    self._emit(("sread", node.attr), node, None)
            elif isinstance(node, ast.Compare):
                self._scan_compare(node)
        if self.fn is None:
            name, line = MODULE_SCOPE, 1
        else:
            name, line = self.fn.name, self.fn.lineno
            if self.cls is not None:
                name = f"{self.cls.name}.{name}"
        return FunctionSummary(
            name=name,
            module=self.mod.module,
            path=self.mod.path,
            line=line,
            params=self.params,
            is_callback=bool(self.callback),
            atoms=self.atoms,
            calls=self.calls,
        )

    def _scan_call(self, node: ast.Call) -> None:
        line = node.lineno
        name = dotted_name(node.func)
        # Direct external effects (DET001/DET002/DES001 vocabularies).
        if name is not None:
            if name in _WALL_CLOCK:
                self._emit(("wall", name), node, "DET001")
            norm = name.replace("np.", "numpy.", 1)
            if norm in _SEEDABLE:
                # Seedable constructors: only the no-argument form.
                if not node.args and not node.keywords:
                    self._emit(("rng", name), node, "DET002", "seedless")
            elif name.startswith("random.") and (
                name.split(".", 1)[1] in _GLOBAL_RANDOM
            ):
                self._emit(("rng", name), node, "DET002", "global")
            elif norm.startswith("numpy.random.") and (
                norm.rsplit(".", 1)[1] in _NUMPY_GLOBAL
            ):
                self._emit(("rng", name), node, "DET002", "legacy")
            if name in _BLOCKING_DOTTED:
                self._emit(("io", name), node, "DES001", self.callback)
        if isinstance(node.func, ast.Name) and node.func.id in _BLOCKING_NAMES:
            self._emit(("io", node.func.id), node, "DES001", self.callback)
        # Event machinery: sink pushes, wire kinds, protocol facts.
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        if attr in _EVENT_SINKS:
            self._emit(("sink", attr), node, "DET003")
        kind, interned = _push_kind(node)
        if kind is not None:
            self.pushed.append((kind, line))
            if interned:
                self.handled.append((kind, line))
            elif kind in _WIRE_KINDS and self.mod.module != _TRANSPORT_MODULE:
                self._emit(("wire", kind), node, "PROTO001")
        if attr == "note" and len(node.args) >= 2:
            nkind = _const_str(node.args[1])
            if nkind is not None and nkind.startswith("hb_"):
                self.hb_emits.append((nkind, line))
        self._classify_call(node, attr, line)

    def _classify_call(
        self, node: ast.Call, attr: str | None, line: int
    ) -> None:
        self_args = tuple(
            i for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id == "self"
        )
        param_args = tuple(
            (i, self.param_index[a.id])
            for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id in self.param_index
            and a.id != "self"
        )
        report_args = tuple(
            i for i, a in enumerate(node.args) if _is_report_base(a)
        )

        kind: str | None = None
        target: tuple = ()
        if isinstance(node.func, ast.Name):
            n = node.func.id
            if n in self.toplevel or n in self.local_classes:
                kind, target = "plain", (n,)
            else:
                ref = self.imports.resolve(n)
                if ref is not None:
                    kind, target = "abs", (ref,)
        elif isinstance(node.func, ast.Attribute):
            base = node.func.value
            bname = dotted_name(base)
            if bname == "self":
                kind, target = "self", (attr,)
            elif bname is not None and bname.startswith("self."):
                kind, target = "sattr", (bname[5:], attr)
            elif bname is not None:
                head = bname.split(".")[0]
                if head in self.var_types and "." not in bname:
                    kind, target = "typed", (self.var_types[bname], attr)
                elif self.imports.resolve(head) is not None:
                    ref = self.imports.resolve(head)
                    rest = bname[len(head):].lstrip(".")
                    full = f"{ref}.{rest}" if rest else ref
                    kind, target = "abs", (f"{full}.{attr}",)
                elif bname in self.local_classes:
                    kind, target = "typed", (f"{self.mod.module}.{bname}", attr)
                else:
                    kind, target = "dyn", (attr,)
            else:
                kind, target = "dyn", (attr,)
        if kind is None:
            return
        self.calls.append(CallSite(
            line=line, kind=kind, target=target,
            self_args=self_args, param_args=param_args,
            report_args=report_args,
        ))

    def _scan_assign(
        self, node: ast.Assign | ast.AugAssign | ast.AnnAssign
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = getattr(node, "value", None)
        for tgt in targets:
            if isinstance(tgt, ast.Tuple):
                # Tuple unpack: record attr writes + pop-bound names.
                for el in tgt.elts:
                    self._assign_target(el)
                if value is not None:
                    self._scan_pop_bind(tgt, value)
            else:
                self._assign_target(tgt)
        # Receiver typing from plain local binds: v = ClassName(...).
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(value, ast.Call)
        ):
            cname = dotted_name(value.func)
            if cname is not None:
                ref = self._class_ref(cname)
                if ref is not None:
                    self.var_types[node.targets[0].id] = ref

    def _assign_target(self, tgt: ast.expr) -> None:
        if not isinstance(tgt, ast.Attribute):
            return
        base = tgt.value
        if isinstance(base, ast.Name) and base.id == "self":
            self._emit(("swrite", tgt.attr), tgt, None)
        elif isinstance(base, ast.Name) and base.id in self.param_index:
            self._emit(
                ("pwrite", self.param_index[base.id], tgt.attr), tgt, None
            )
            if tgt.attr in COUNTER_OWNERS:
                self._emit(
                    ("cparam", self.param_index[base.id], tgt.attr),
                    tgt, "PROTO002",
                )
        if (
            tgt.attr in COUNTER_OWNERS
            and dotted_name(base) in _REPORT_BASES
            and self.mod.module != COUNTER_OWNERS[tgt.attr]
            and self.mod.module not in _EXEMPT_MODULES
        ):
            self._emit(("counter", tgt.attr), tgt, "PROTO002")

    def _scan_pop_bind(self, tgt: ast.Tuple, value: ast.expr) -> None:
        """Record names tuple-bound from an event-pop expression."""
        if not isinstance(value, ast.Call):
            return
        fname = None
        if isinstance(value.func, ast.Attribute):
            fname = value.func.attr
        elif isinstance(value.func, ast.Name):
            fname = value.func.id
        if fname not in ("pop", "pop_batch", "heappop"):
            return
        for el in tgt.elts:
            if isinstance(el, ast.Name):
                self._pop_bound.add(el.id)

    def _scan_compare(self, node: ast.Compare) -> None:
        """Dispatch comparisons: ``kind == "x"`` / ``kind in (...)``."""
        left = node.left
        if not (
            isinstance(left, ast.Name) and left.id in self._pop_bound
        ):
            return
        if len(node.ops) != 1 or not isinstance(
            node.ops[0], (ast.Eq, ast.In, ast.NotEq, ast.NotIn)
        ):
            return
        comp = node.comparators[0]
        consts: list[tuple[str, int]] = []
        if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
            for el in comp.elts:
                s = _const_str(el)
                if s is not None:
                    consts.append((s, node.lineno))
        else:
            s = _const_str(comp)
            if s is not None:
                consts.append((s, node.lineno))
        self.handled.extend(consts)


def _class_attr_types(
    cls: ast.ClassDef, scanner_factory
) -> dict[str, str]:
    """``self.x`` -> class ref, from constructor-call / typed-param
    assignments in any method (``__init__`` wins on conflict order)."""
    out: dict[str, str] = {}
    for sub in cls.body:
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        sc = scanner_factory(sub)
        for node in ast.walk(sub):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
            ):
                continue
            tgt = node.targets[0]
            if not (
                isinstance(tgt.value, ast.Name) and tgt.value.id == "self"
            ):
                continue
            ref: str | None = None
            if isinstance(node.value, ast.Call):
                cname = dotted_name(node.value.func)
                if cname is not None:
                    ref = sc._class_ref(cname)
            elif isinstance(node.value, ast.Name):
                ref = sc.var_types.get(node.value.id)
            if ref is not None:
                out.setdefault(tgt.attr, ref)
    return out


def extract_summary(mod: ModuleInfo) -> ModuleSummary:
    """Phase 1: reduce one parsed module to its summary."""
    imports = _Imports(mod.module, mod.path.endswith("__init__.py"))
    toplevel: set[str] = set()
    local_classes: set[str] = set()
    for node in mod.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.add(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            toplevel.add(node.name)
        elif isinstance(node, ast.ClassDef):
            local_classes.add(node.name)
    # Imports may appear below module level (lazy imports in functions).
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in (
            mod.tree.body
        ):
            imports.add(node)

    summary = ModuleSummary(module=mod.module, path=mod.path)

    module_transient: set[str] = set()
    scanned: set[int] = set()  # ids of the defs that got their own scope

    def scan_fn(fn, cls):
        if fn is not None:
            scanned.add(id(fn))
        sc = _FunctionScanner(
            mod, imports, fn, cls, toplevel, local_classes, scanned
        )
        fs = sc.scan()
        if fn is not None or fs.atoms or fs.calls:
            summary.functions[fs.name] = fs
        summary.pushed.extend(sc.pushed)
        summary.handled.extend(sc.handled)
        summary.hb_emits.extend(sc.hb_emits)
        for site in fs.atoms:
            if site.atom[0] in ("swrite", "pwrite") and (
                site.line in mod.transient_lines
            ):
                module_transient.add(site.atom[-1])
        return sc

    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_fn(node, None)
        elif isinstance(node, ast.ClassDef):
            methods = []
            transient: set[str] = set()
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    sc = scan_fn(sub, node)
                    methods.append(sub.name)
                    for site in sc.atoms:
                        if site.atom[0] == "swrite" and (
                            site.line in mod.transient_lines
                        ):
                            transient.add(site.atom[1])
                elif (
                    isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Name)
                    and sub.lineno in mod.transient_lines
                ):
                    transient.add(sub.target.id)
            bases = []
            for b in node.bases:
                bname = dotted_name(b)
                if bname is None:
                    continue
                if bname in local_classes:
                    bases.append(f"{mod.module}.{bname}")
                else:
                    head, _, rest = bname.partition(".")
                    resolved = imports.resolve(head)
                    if resolved is not None:
                        bases.append(
                            f"{resolved}.{rest}" if rest else resolved
                        )
                    else:
                        bases.append(bname)
            attr_types = _class_attr_types(
                node,
                lambda sub: _FunctionScanner(
                    mod, imports, sub, node, toplevel, local_classes
                ),
            )
            summary.classes[node.name] = ClassSummary(
                name=node.name,
                module=mod.module,
                path=mod.path,
                line=node.lineno,
                bases=tuple(bases),
                attr_types=attr_types,
                methods=tuple(methods),
                transient_attrs=tuple(sorted(transient)),
                has_state_dict="state_dict" in methods,
            )
    scan_fn(None, None)  # what is left: the <module> scope
    summary.transient_attrs = tuple(sorted(module_transient))
    return summary


# -- link phase ------------------------------------------------------------------------


class Program:
    """All module summaries linked into one resolvable call graph."""

    def __init__(self, summaries: list[ModuleSummary]):
        self.modules: dict[str, ModuleSummary] = {}
        for s in sorted(summaries, key=lambda s: s.path):
            self.modules[s.module] = s
        #: "module.func" / "module.Class.meth" -> FunctionSummary
        self.functions: dict[str, FunctionSummary] = {}
        #: "module.Class" -> ClassSummary
        self.classes: dict[str, ClassSummary] = {}
        #: method name -> sorted qnames (bounded dynamic fallback)
        self._by_method: dict[str, list[str]] = {}
        for s in self.modules.values():
            for f in s.functions.values():
                self.functions[f.qname] = f
                short = f.name.rpartition(".")[2]
                self._by_method.setdefault(short, []).append(f.qname)
            for c in s.classes.values():
                self.classes[c.qname] = c
        for lst in self._by_method.values():
            lst.sort()
        #: resolved edges: caller qname -> [(CallSite, (target qnames))]
        self.calls: dict[str, list[tuple[CallSite, tuple[str, ...]]]] = {}
        #: (path, line) -> target qnames (AST-side lookups, e.g. DET003)
        self.calls_at: dict[tuple[str, int], list[str]] = {}
        self.unresolved_dynamic = 0
        #: the fixed-point effect database (see effects.effect_db)
        self.effects: EffectDB | None = None
        for f in self.functions.values():
            edges = []
            for site in f.calls:
                targets = self._resolve(f, site)
                edges.append((site, targets))
                if targets:
                    self.calls_at.setdefault(
                        (f.path, site.line), []
                    ).extend(targets)
            self.calls[f.qname] = edges

    # -- hierarchy ------------------------------------------------------------------

    def mro(self, classref: str) -> list[ClassSummary]:
        """Linearized base order (DFS, first-seen wins)."""
        out: list[ClassSummary] = []
        seen: set[str] = set()
        stack = [classref]
        while stack:
            ref = stack.pop(0)
            if ref in seen:
                continue
            seen.add(ref)
            cls = self.classes.get(ref)
            if cls is None:
                continue
            out.append(cls)
            stack.extend(cls.bases)
        return out

    def resolve_method(self, classref: str, meth: str) -> str | None:
        """Def-site of ``meth`` on ``classref``, hierarchy-aware."""
        for cls in self.mro(classref):
            if meth in cls.methods:
                return f"{cls.qname}.{meth}"
        return None

    # -- call resolution ------------------------------------------------------------

    def _resolve(
        self, caller: FunctionSummary, site: CallSite
    ) -> tuple[str, ...]:
        kind = site.kind
        if kind == "plain":
            (name,) = site.target
            q = f"{caller.module}.{name}"
            if q in self.functions:
                return (q,)
            if q in self.classes:
                init = self.resolve_method(q, "__init__")
                return (init,) if init else ()
            return ()
        if kind == "abs":
            (ref,) = site.target
            if ref in self.functions:
                return (ref,)
            if ref in self.classes:
                init = self.resolve_method(ref, "__init__")
                return (init,) if init else ()
            # Constructor via re-exporting package: X imported from a
            # package __init__ that re-exports the real class.
            mod, _, name = ref.rpartition(".")
            for cref, cls in self.classes.items():
                if cls.name == name and cref.startswith(mod.split(".")[0]):
                    init = self.resolve_method(cref, "__init__")
                    if init and self._unique_class_name(name):
                        return (init,)
                    break
            return ()
        if kind == "self":
            (meth,) = site.target
            cref = self._enclosing_class(caller)
            if cref is None:
                return ()
            q = self.resolve_method(cref, meth)
            return (q,) if q else self._dynamic(meth)
        if kind == "sattr":
            attr, meth = site.target
            cref = self._enclosing_class(caller)
            if cref is not None:
                for cls in self.mro(cref):
                    tref = cls.attr_types.get(attr)
                    if tref is not None:
                        q = self.resolve_method(tref, meth)
                        if q:
                            return (q,)
            return self._dynamic(meth)
        if kind == "typed":
            cref, meth = site.target
            q = self.resolve_method(cref, meth)
            return (q,) if q else self._dynamic(meth)
        if kind == "dyn":
            (meth,) = site.target
            return self._dynamic(meth)
        return ()

    def _unique_class_name(self, name: str) -> bool:
        return sum(1 for c in self.classes.values() if c.name == name) == 1

    def _enclosing_class(self, fn: FunctionSummary) -> str | None:
        cls, _, _meth = fn.name.rpartition(".")
        if not cls:
            return None
        return f"{fn.module}.{cls}"

    def _dynamic(self, meth: str | None) -> tuple[str, ...]:
        """Bounded fallback: link to every same-name *method* when the
        candidate set is small; drop the edge (and count it) beyond."""
        if meth is None:
            return ()
        cands = [
            q for q in self._by_method.get(meth, ())
            if q.rpartition(".")[0] in self.classes
        ]
        if not cands:
            return ()
        if len(cands) > DYNAMIC_FALLBACK_BOUND:
            self.unresolved_dynamic += 1
            return ()
        return tuple(cands)

    # -- protocol facts --------------------------------------------------------------

    def pushed_kinds(self) -> dict[str, list[tuple[str, int]]]:
        """kind -> [(path, line), ...] of every push site."""
        out: dict[str, list[tuple[str, int]]] = {}
        for s in self.modules.values():
            for kind, line in s.pushed:
                out.setdefault(kind, []).append((s.path, line))
        return out

    def handled_kinds(self) -> dict[str, list[tuple[str, int]]]:
        out: dict[str, list[tuple[str, int]]] = {}
        for s in self.modules.values():
            for kind, line in s.handled:
                out.setdefault(kind, []).append((s.path, line))
        return out

    def hb_known_kinds(self) -> set[str]:
        """Record kinds the HB checker understands (``_on_*`` methods
        of any ``*HbChecker`` class in the program)."""
        known: set[str] = set()
        for cls in self.classes.values():
            if not cls.name.endswith("HbChecker"):
                continue
            for meth in cls.methods:
                if meth.startswith("_on_"):
                    known.add("hb_" + meth[4:])
        return known
