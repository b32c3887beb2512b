"""Small shared utilities used across the repro package."""

from __future__ import annotations

from collections.abc import Iterable
from numbers import Integral

import numpy as np

__all__ = [
    "as_int_array",
    "check",
    "check_count",
    "prod",
    "ReproError",
]


class ReproError(RuntimeError):
    """Base class for errors raised by the repro package."""


def check(cond: bool, msg: str) -> None:
    """Raise :class:`ReproError` with ``msg`` unless ``cond`` holds."""
    if not cond:
        raise ReproError(msg)


def check_count(name: str, value, what: str):
    """Return ``value`` if it is a positive integer, else raise
    :class:`ReproError` naming ``what`` and ``name=value``.

    numpy integers pass; a ``bool`` or a float (even ``2.0``) does not.
    Counts are refused where they enter, not deep in the code that
    loops over, rounds or hashes them.
    """
    if value.__class__ is int and value > 0:  # the common case, no ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, Integral) or value <= 0:
        raise ReproError(
            f"{what} must be positive and integral; got {name}={value!r}"
        )
    return value


def as_int_array(a, ndim: int | None = None) -> np.ndarray:
    """Convert ``a`` to a contiguous int64 array, optionally checking rank."""
    arr = np.ascontiguousarray(a, dtype=np.int64)
    if ndim is not None and arr.ndim != ndim:
        raise ReproError(f"expected {ndim}-d integer array, got shape {arr.shape}")
    return arr


def prod(seq: Iterable[int]) -> int:
    """Integer product of a sequence (empty product is 1)."""
    out = 1
    for s in seq:
        out *= int(s)
    return out
