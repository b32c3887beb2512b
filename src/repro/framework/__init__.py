"""Patches, patch sets and connectivity tables (system S5)."""

from .connectivity import (
    BoundaryTable,
    InterfaceTable,
    build_boundary,
    build_interfaces,
)
from .patch import Patch, PatchSet

__all__ = [
    "Patch",
    "PatchSet",
    "InterfaceTable",
    "BoundaryTable",
    "build_interfaces",
    "build_boundary",
]
