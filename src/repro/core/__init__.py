"""Patch-centric data-driven abstraction (the paper's contribution, S7-S8)."""

from .engine import EngineStats, SerialEngine
from .patch_program import PatchProgram, ProgramState
from .stream import ProgramId, Stream
from .termination import WorkloadTracker

__all__ = [
    "ProgramId",
    "Stream",
    "PatchProgram",
    "ProgramState",
    "SerialEngine",
    "EngineStats",
    "WorkloadTracker",
]
