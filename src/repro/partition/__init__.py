"""Domain decomposition: space-filling curves and RCB.

System S4 in DESIGN.md - RCB in place of METIS/Chaco (unstructured)
and Morton/Hilbert SFC assignment (structured).
"""

from .rcb import rcb_partition
from .sfc import (
    chunk_by_weight,
    hilbert_decode,
    hilbert_encode,
    morton_decode,
    morton_encode,
    sfc_order,
)
from .structured import assign_patches_sfc, patchify_structured
from .unstructured import UnstructuredDecomposition, assign_patches_rcb, decompose_unstructured

__all__ = [
    "rcb_partition",
    "morton_encode",
    "morton_decode",
    "hilbert_encode",
    "hilbert_decode",
    "sfc_order",
    "chunk_by_weight",
    "assign_patches_sfc",
    "patchify_structured",
    "UnstructuredDecomposition",
    "assign_patches_rcb",
    "decompose_unstructured",
]
