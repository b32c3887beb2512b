"""Machine-speed calibration loop for host-time metrics.

Raw wall-clock seconds on a shared box drift by 10-20 % between
processes (the CPU clock moves, not the code), so every host time the
ledger reports is a *calibrated second*::

    t_cal = t_raw * cal_ref_s / cal_now

``cal_now`` is how long :func:`calibration_loop` takes next to the
timed region; ``cal_ref_s`` (``ledger.json``) is how long it took on
the box where the benchmark was defined.  The loop's instruction mix
follows the runtime's hot path: pure-Python ``heapq`` + ``dict``
traffic (the event core and the per-program vertex heaps) plus small
batched ``np.matmul`` and ``tolist`` calls (the wavefront kernels).
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush

import numpy as np

__all__ = ["calibration_loop", "Calibrator"]

_HEAP_OPS = 80_000
_MATMULS = 16_000


def calibration_loop() -> float:
    """Run the fixed calibration work once; returns its wall seconds.

    The collector is paused for the loop: a full collection walks every
    live object of the process, so with it on the loop would time the
    workload's heap (35 ms extra, every few laps, beside a 300 MB
    Kobayashi topology) instead of the machine.
    """
    gc_was = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        seen: dict = {}
        x = 12345
        for i in range(_HEAP_OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(heap, (x & 0xFFFF, i))
            seen[x & 0x3FF] = seen.get(x & 0x3FF, 0) + 1
            if i & 1:
                heappop(heap)
        a = np.arange(32 * 4 * 4, dtype=float).reshape(32, 4, 4) / 512.0
        b = np.ones((32, 4, 1))
        acc = 0.0
        for _ in range(_MATMULS):
            acc += np.matmul(a, b).ravel().tolist()[0]
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was:
            gc.enable()
    if acc < 0 or not heap:  # keep the work observable
        raise RuntimeError("calibration loop produced no work")
    return elapsed


class Calibrator:
    """Converts raw seconds to calibrated seconds around timed regions.

    Call :meth:`tick` before the first timed region and after every
    one; :meth:`scale` then converts a raw duration using the mean of
    the two loops that bracket it.
    """

    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.samples: list[float] = []

    def tick(self) -> float:
        self.samples.append(calibration_loop())
        return self.samples[-1]

    def scale(self, raw_s: float) -> float:
        """Calibrated seconds of a region bracketed by the last two ticks."""
        now = 0.5 * (self.samples[-1] + self.samples[-2])
        return raw_s * self.ref_s / now

    @property
    def total_s(self) -> float:
        return sum(self.samples)
