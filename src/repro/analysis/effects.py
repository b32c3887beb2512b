"""Fixed-point transitive effect inference over the call graph.

Phase-1 summaries (:mod:`repro.analysis.callgraph`) record each
function's *direct* effect atoms.  This module closes them over the
resolved call graph with a reverse-worklist fixed point, so that every
function carries the effects of everything it can reach:

* **External effects** - ``wall`` / ``rng`` / ``io`` / ``sink`` /
  ``wire`` / ``counter`` - propagate through every resolved edge: a
  caller of an impure function is impure.
* **Counter-on-parameter** (``cparam``) remaps through argument
  positions: if the call site passes one of the caller's own params,
  the caller gets a ``cparam`` on that param; if it passes a run
  report (``report`` / ``rep`` / ``self.report``), the caller itself
  becomes a counter writer (``counter``) - the laundering case
  PROTO002 exists for.
* **Self-state effects** - ``swrite`` / ``sread`` - propagate only
  through same-receiver edges (``self.m()`` calls), plus callee
  ``pwrite`` atoms at positions where the caller passes ``self``.
  This is what lets PERSIST002 resolve a class's mutable surface
  through its helper methods.

Every inferred effect carries a provenance chain - the call path from
the carrying function down to the direct site - embedded in every
propagated finding (the ``via:`` line).

Termination: the atom space is finite (direct atoms, plus param
remappings bounded by each function's arity), effects only grow, and
each (function, atom) pair is added once - the worklist drains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import CallSite, FunctionSummary, Program

__all__ = ["Effect", "EffectDB", "EXTERNAL_KINDS", "effect_db"]

#: Atom kinds that propagate through *every* resolved call edge.
EXTERNAL_KINDS = frozenset({"wall", "rng", "io", "sink", "wire", "counter"})


@dataclass(frozen=True)
class Effect:
    """One inferred effect on one function.

    ``line`` is where the effect enters *this* function: the direct
    site, or the call site it propagated through.  ``chain`` is the
    full provenance path, topmost carrier first, each entry
    ``"qualified.name (path:line)"``; a direct effect has a one-entry
    chain.
    """

    atom: tuple
    line: int
    chain: tuple[str, ...]

    @property
    def direct(self) -> bool:
        return len(self.chain) == 1

    @property
    def origin(self) -> tuple[str, int]:
        """(path, line) of the direct site at the bottom of the chain."""
        loc = self.chain[-1].rsplit(" (", 1)[1].rstrip(")")
        path, _, line = loc.rpartition(":")
        return path, int(line)


def _entry(fn: FunctionSummary, line: int) -> str:
    return f"{fn.qname} ({fn.path}:{line})"


def effect_db(program: Program) -> EffectDB:
    """The program's effect database, computed once and memoized."""
    if program.effects is None:
        program.effects = EffectDB(program)
    return program.effects


def _is_method(fn: FunctionSummary) -> bool:
    return "." in fn.name


class EffectDB:
    """Transitive effects for every function in a linked program."""

    def __init__(self, program: Program):
        self.program = program
        #: qname -> {atom: Effect}
        self.effects: dict[str, dict[tuple, Effect]] = {
            q: {} for q in program.functions
        }
        #: callee qname -> [(caller qname, CallSite)]
        self._rev: dict[str, list[tuple[str, CallSite]]] = {}
        for caller, edges in program.calls.items():
            for site, targets in edges:
                for t in targets:
                    self._rev.setdefault(t, []).append((caller, site))
        self._solve()

    # -- fixed point ----------------------------------------------------------------

    def _solve(self) -> None:
        worklist: list[str] = []
        for q, fn in self.program.functions.items():
            table = self.effects[q]
            for site in fn.atoms:
                if site.atom not in table:
                    table[site.atom] = Effect(
                        site.atom, site.line, (_entry(fn, site.line),)
                    )
            if table:
                worklist.append(q)
        while worklist:
            callee = worklist.pop()
            for caller, site in self._rev.get(callee, ()):
                if self._flow(caller, callee, site):
                    worklist.append(caller)

    def _flow(self, caller_q: str, callee_q: str, site: CallSite) -> bool:
        """Propagate callee's effects to the caller through one site.

        Returns True when the caller gained at least one new atom.
        """
        caller = self.program.functions[caller_q]
        callee = self.program.functions[callee_q]
        table = self.effects[caller_q]
        # Implicit-receiver calls shift arg positions by one: call arg
        # i binds callee param i+1 (param 0 is `self`).
        offset = 1 if (
            _is_method(callee) and site.kind in ("self", "sattr", "typed", "dyn")
        ) else 0
        same_receiver = site.kind == "self" and _is_method(caller)
        param_map = dict(site.param_args)  # call arg pos -> caller param
        gained = False
        for atom, eff in list(self.effects[callee_q].items()):
            for new in self._remap(
                atom, site, offset, same_receiver, param_map
            ):
                if new in table:
                    continue
                table[new] = Effect(
                    new, site.line, (_entry(caller, site.line), *eff.chain)
                )
                gained = True
        return gained

    @staticmethod
    def _remap(
        atom: tuple,
        site: CallSite,
        offset: int,
        same_receiver: bool,
        param_map: dict[int, int],
    ) -> list[tuple]:
        kind = atom[0]
        if kind in EXTERNAL_KINDS:
            return [atom]
        if kind in ("swrite", "sread"):
            return [atom] if same_receiver else []
        if kind == "cparam":
            _, pidx, name = atom
            pos = pidx - offset
            if pos in site.report_args:
                return [("counter", name)]
            if pos in param_map:
                return [("cparam", param_map[pos], name)]
            return []
        if kind == "pwrite":
            _, pidx, attr = atom
            pos = pidx - offset
            if pos in site.self_args:
                return [("swrite", attr)]
            if pos in param_map:
                return [("pwrite", param_map[pos], attr)]
            return []
        return []

    # -- queries --------------------------------------------------------------------

    def of(self, qname: str) -> dict[tuple, Effect]:
        return self.effects.get(qname, {})

    def with_kind(self, qname: str, kind: str) -> list[Effect]:
        return sorted(
            (e for a, e in self.of(qname).items() if a[0] == kind),
            key=lambda e: (e.line, e.atom),
        )

    def class_swrites(self, classref: str) -> dict[str, Effect]:
        """attr -> Effect: the class's transitive mutable surface.

        Union over every hierarchy-resolved method except the
        constructor (compose-time state) and the snapshot pair
        (``load_state_dict`` writes *are* the coverage set,
        ``state_dict`` must not write at all - PERSIST001's concern).
        """
        out: dict[str, Effect] = {}
        seen: set[str] = set()
        for cls in self.program.mro(classref):
            for meth in cls.methods:
                if meth in seen:
                    continue  # overridden lower in the hierarchy
                seen.add(meth)
                if meth in ("__init__", "state_dict", "load_state_dict"):
                    continue
                q = f"{cls.qname}.{meth}"
                for atom, eff in self.of(q).items():
                    if atom[0] == "swrite":
                        out.setdefault(atom[1], eff)
        return out

    def class_covered(self, classref: str) -> set[str]:
        """Attrs the snapshot round trip covers: ``state_dict`` reads
        union ``load_state_dict`` writes (both transitive)."""
        covered: set[str] = set()
        sd = self.program.resolve_method(classref, "state_dict")
        if sd is not None:
            covered.update(
                a[1] for a in self.of(sd) if a[0] in ("sread", "swrite")
            )
        ld = self.program.resolve_method(classref, "load_state_dict")
        if ld is not None:
            covered.update(a[1] for a in self.of(ld) if a[0] == "swrite")
        return covered

    def class_transient(self, classref: str) -> set[str]:
        out: set[str] = set()
        for cls in self.program.mro(classref):
            out.update(cls.transient_attrs)
            # Module-wide pragmas cover helper-mediated writes.
            summary = self.program.modules.get(cls.module)
            if summary is not None:
                out.update(summary.transient_attrs)
        return out
