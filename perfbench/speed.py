"""Machine speed, measured next to the timed items.

On a shared machine the same Python code runs up to twice as fast or slow
from one half-minute to the next (a busy or idle neighbour on the same
physical core).  Wall times taken at different moments are then not
comparable, so the benchmark also times a fixed pure-Python kernel, which
does not touch ngclab, every few tens of milliseconds, and scales each
measured time by REFERENCE_KERNEL_S / (kernel time around it).  The
reported times are seconds on a machine where the kernel takes exactly
REFERENCE_KERNEL_S, roughly a 2.0 GHz Xeon VM core with a busy neighbour.
A slower ngclab takes more kernel-lengths of time and still reads slower.
"""

from __future__ import annotations

import gc
import time

REFERENCE_KERNEL_S = 300e-6
INTERVAL_S = 0.025          # at most this much item time between two kernels


def _kernel() -> int:
    table = {}
    acc = 0
    for i in range(400):
        key = (i, i * 7 % 13, "x")
        table[key] = hash(key) & 0xFFFF
        acc ^= table[key] << (i & 7)
        acc = (acc * 31 + len(table)) & ((1 << 61) - 1)
    return acc


def kernel_time() -> float:
    """Best of three kernel runs, with the collector off so that the size
    of ngclab's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class SpeedGauge:
    """Scales raw durations by the kernel readings taken around them."""

    def __init__(self):
        self.last = kernel_time()
        self.last_at = time.perf_counter()
        self.pending: list[dict] = []

    def add(self, record: dict) -> None:
        """Queue a record with a raw `raw_s`; it gets `seconds` once the next
        reading is taken."""
        self.pending.append(record)
        if time.perf_counter() - self.last_at >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        now = kernel_time()
        factor = REFERENCE_KERNEL_S / ((self.last + now) / 2)
        for record in self.pending:
            record["seconds"] = record["raw_s"] * factor
        self.pending.clear()
        self.last = now
        self.last_at = time.perf_counter()
