"""Class summaries and same-receiver call edges: what PERSIST002 needs.

PERSIST002 asks whether every attribute a class assigns at run time is
in its ``state_dict`` round trip.  The assignment may sit in the method
itself, in a helper the method calls on the same receiver
(``self._bind()``), or in a module-level helper handed ``self``
(``_tick(self)`` assigning ``win.phase``).  Nothing else is followed:
no receiver typing, no dynamic dispatch, no calls into other modules.

**Per module** (:func:`extract_summary`): each class's bases (absolute
dotted refs through the import table), its methods, and per function
the ``self.<attr>`` reads and writes, the attribute writes on each
parameter, the ``self.m()`` calls and the ``helper(self)`` calls.

**Linked** (:class:`Program`): a class's MRO over the linted set, and
per class the transitive reads and writes of each method, each with
one provenance chain: the ``(function, line)`` hops from the method
down to the access (:meth:`FunctionSummary.entry` renders one).  A
``self.m()`` edge resolves on the MRO of the class being checked, so a
subclass override is followed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .engine import ModuleInfo, dotted_name

__all__ = [
    "ClassSummary",
    "Facts",
    "FunctionSummary",
    "ModuleSummary",
    "Program",
    "Site",
    "extract_summary",
]

#: Methods outside a class's run-time surface: the constructor
#: (compose-time state) and the snapshot pair itself.
_NOT_SURFACE = ("__init__", "state_dict", "load_state_dict")


class Site(NamedTuple):
    """One attribute access: ``kind`` is "read"/"write" on ``self``,
    or "pwrite" on parameter ``param``."""

    kind: str
    attr: str
    line: int
    param: int = -1


class Facts(NamedTuple):
    """What one function body does that PERSIST002 follows."""

    sites: list[Site]
    #: (line, method) of each ``self.m(...)`` call
    self_calls: list[tuple[int, str]]
    #: (line, function, argument positions holding ``self``) of each
    #: call of a module-level function of the same module
    helper_calls: list[tuple[int, str, tuple[int, ...]]]


@dataclass(eq=False)
class FunctionSummary:
    """One function or method.  Its body is scanned on first use, so
    only the classes PERSIST002 checks are ever scanned."""

    name: str  # "func" or "Class.meth"
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)
    #: names of the module's top-level functions
    helpers: frozenset[str] = field(repr=False, default=frozenset())

    @property
    def qname(self) -> str:
        return f"{self.module}.{self.name}"

    def entry(self, line: int) -> str:
        return f"{self.qname} ({self.path}:{line})"

    @cached_property
    def facts(self) -> Facts:
        fn = self.node
        out = Facts([], [], [])
        params = {
            a.arg: i
            for i, a in enumerate([*fn.args.posonlyargs, *fn.args.args])
        }
        nodes = list(ast.walk(fn))
        funcs = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                base, store = node.value.id, isinstance(node.ctx, ast.Store)
                if base == "self" and store:
                    out.sites.append(Site("write", node.attr, node.lineno))
                elif (
                    base == "self" and isinstance(node.ctx, ast.Load)
                    and id(node) not in funcs
                ):
                    out.sites.append(Site("read", node.attr, node.lineno))
                elif base in params and store:
                    out.sites.append(
                        Site("pwrite", node.attr, node.lineno, params[base])
                    )
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is not None and callee.startswith("self."):
                    if callee.count(".") == 1:
                        out.self_calls.append((node.lineno, callee[5:]))
                elif callee in self.helpers:
                    selves = tuple(
                        i for i, a in enumerate(node.args)
                        if isinstance(a, ast.Name) and a.id == "self"
                    )
                    if selves:
                        out.helper_calls.append((node.lineno, callee, selves))
        return out


#: Provenance: ``(function, line)`` hops, the access site last.
Chain = tuple[tuple[FunctionSummary, int], ...]


@dataclass
class ClassSummary:
    name: str
    module: str
    line: int
    bases: tuple[str, ...]  # absolute dotted refs where resolvable
    methods: dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def qname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleSummary:
    module: str
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    helpers: dict[str, FunctionSummary] = field(default_factory=dict)
    #: attrs marked ``# repro: transient`` on any assignment here
    transient: frozenset[str] = frozenset()


def _imports(mod: ModuleInfo) -> dict[str, str]:
    """Name -> absolute dotted ref, from every import in the module."""
    package = mod.module if mod.path.endswith("__init__.py") else (
        mod.module.rpartition(".")[0]
    )
    out: dict[str, str] = {}
    for node in mod.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parts = package.split(".") if package else []
                if node.level - 1 > len(parts):
                    continue
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name != "*" and base:
                    out[alias.asname or alias.name] = f"{base}.{alias.name}"
    return out


def extract_summary(mod: ModuleInfo) -> ModuleSummary:
    """Reduce one parsed module to its classes and helpers."""
    imports = _imports(mod)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    helpers = frozenset(
        n.name for n in mod.tree.body if isinstance(n, defs)
    )
    local = {n.name for n in mod.tree.body if isinstance(n, ast.ClassDef)}
    summary = ModuleSummary(mod.module)
    for node in mod.tree.body:
        if isinstance(node, defs):
            summary.helpers[node.name] = FunctionSummary(
                node.name, mod.module, mod.path, node, helpers
            )
        elif isinstance(node, ast.ClassDef):
            bases = []
            for b in node.bases:
                bname = dotted_name(b)
                if bname is None:
                    continue
                head, _, rest = bname.partition(".")
                ref = f"{mod.module}.{bname}" if bname in local else (
                    imports.get(head, head) + (f".{rest}" if rest else "")
                )
                bases.append(ref)
            cls = ClassSummary(
                node.name, mod.module, node.lineno, tuple(bases)
            )
            for sub in node.body:
                if isinstance(sub, defs):
                    cls.methods[sub.name] = FunctionSummary(
                        f"{node.name}.{sub.name}", mod.module, mod.path, sub,
                        helpers,
                    )
            summary.classes[node.name] = cls
    transient: set[str] = set()
    for node in mod.nodes if mod.transient_lines else ():
        if getattr(node, "lineno", None) not in mod.transient_lines:
            continue
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            transient.add(node.target.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store
        ):
            transient.add(node.attr)
    summary.transient = frozenset(transient)
    return summary


class Program:
    """Module summaries linked by class hierarchy over the linted set."""

    def __init__(self, summaries: list[ModuleSummary]):
        self.modules = {s.module: s for s in summaries}
        self.classes = {
            c.qname: c for s in summaries for c in s.classes.values()
        }
        self._uncovered: dict[str, dict[str, Chain]] = {}

    def mro(self, classref: str) -> list[ClassSummary]:
        """Linearized base order (breadth first, first seen wins)."""
        out: list[ClassSummary] = []
        seen: set[str] = set()
        todo = [classref]
        while todo:
            ref = todo.pop(0)
            if ref in seen:
                continue
            seen.add(ref)
            cls = self.classes.get(ref)
            if cls is not None:
                out.append(cls)
                todo.extend(cls.bases)
        return out

    def resolve_method(self, classref: str, meth: str) -> FunctionSummary | None:
        """Def-site of ``meth`` on ``classref``, hierarchy-aware."""
        for cls in self.mro(classref):
            if meth in cls.methods:
                return cls.methods[meth]
        return None

    def reach(
        self, classref: str, root: FunctionSummary, kinds: tuple[str, ...]
    ) -> dict[str, Chain]:
        """attr -> chain: the ``kinds`` accesses on ``self`` that
        ``root`` makes directly or through same-receiver calls."""
        out: dict[str, Chain] = {}
        seen = {root.qname}
        todo: list[tuple[FunctionSummary, Chain]] = [(root, ())]
        while todo:
            fn, hops = todo.pop(0)
            for site in fn.facts.sites:
                if site.kind in kinds:
                    out.setdefault(site.attr, (*hops, (fn, site.line)))
            for line, meth in fn.facts.self_calls:
                callee = self.resolve_method(classref, meth)
                if callee is not None and callee.qname not in seen:
                    seen.add(callee.qname)
                    todo.append((callee, (*hops, (fn, line))))
            if "write" not in kinds:
                continue
            helpers = self.modules[fn.module].helpers
            for line, name, selves in fn.facts.helper_calls:
                helper = helpers[name]
                for site in helper.facts.sites:
                    if site.kind == "pwrite" and site.param in selves:
                        out.setdefault(site.attr, (
                            *hops, (fn, line), (helper, site.line)
                        ))
        return out

    def surface(self, classref: str) -> dict[str, Chain]:
        """attr -> chain: every attribute a run-time method assigns."""
        out: dict[str, Chain] = {}
        seen: set[str] = set()
        for cls in self.mro(classref):
            for meth, fn in cls.methods.items():
                if meth in seen:
                    continue  # overridden lower in the hierarchy
                seen.add(meth)
                if meth not in _NOT_SURFACE:
                    for attr, chain in self.reach(
                        classref, fn, ("write",)
                    ).items():
                        out.setdefault(attr, chain)
        return out

    def covered(self, classref: str) -> set[str]:
        """Attrs the round trip covers: what ``state_dict`` reads or
        writes, and what ``load_state_dict`` writes."""
        out: set[str] = set()
        for meth, kinds in (
            ("state_dict", ("read", "write")), ("load_state_dict", ("write",))
        ):
            fn = self.resolve_method(classref, meth)
            if fn is not None:
                out.update(self.reach(classref, fn, kinds))
        return out

    def transient(self, classref: str) -> set[str]:
        out: set[str] = set()
        for cls in self.mro(classref):
            out.update(self.modules[cls.module].transient)
        return out

    def uncovered(self, classref: str) -> dict[str, Chain]:
        """attr -> chain: the surface outside the round trip (empty
        for a class without ``state_dict``)."""
        if classref not in self._uncovered:
            out: dict[str, Chain] = {}
            if self.resolve_method(classref, "state_dict") is not None:
                skip = self.covered(classref) | self.transient(classref)
                out = {
                    attr: chain
                    for attr, chain in self.surface(classref).items()
                    if attr not in skip and not attr.startswith("__")
                }
            self._uncovered[classref] = out
        return self._uncovered[classref]
