"""Docs drift: every dotted ``repro.*`` name the user-facing documents
cite must exist in the code they describe.

A name resolves when its longest importable prefix is a module and the
rest are attributes of it (``repro.runtime.faults.RecoveryConfig``,
``repro.sweep.SnSolver.accumulate``).
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolve(name: str) -> None:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_repro_name_resolves(doc):
    names = sorted(set(NAME.findall((ROOT / doc).read_text())))
    bad = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError as e:
            bad.append(f"{name}: {e}")
    assert not bad, f"{doc} cites names the code does not have: {bad}"
