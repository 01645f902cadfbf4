"""Host-speed reference: puts host timings on a fixed speed scale.

The virtual machines this benchmark runs on share their cores. Over a
run, the host's speed drifts by 20-50% with the load of its neighbours,
so raw host time spreads more between runs than any regression worth
catching. The benchmark therefore interleaves a fixed reference kernel
with the work it times: after each timed piece of work it runs the
kernel until kernel time is `REF_SHARE` of the measured time so far.
The kernel is pure Python in the style of the simulator's event loop
(heap of timestamped events, slotted objects, dict counters, CSV-like
string formatting) and does not depend on voipqos, so a change to
voipqos cannot move it.

`HostSpeed.scale_at(t)` is `REF_UNIT_S` / (mean kernel time within
`WINDOW_S` of moment `t`). Multiplying a host time measured around `t`
by it gives the time the host would have taken at reference speed,
that is, with one kernel taking `REF_UNIT_S`.
"""
from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time
from typing import List

# Median time of one reference unit on the 2-vCPU Xeon virtual machine
# where BASELINE.json was measured (Python 3.11.7).
REF_UNIT_S = 0.013
# Kernel time as a share of the measured time it follows.
REF_SHARE = 0.1
# Kernel samples this close to a measurement give its local speed.
WINDOW_S = 3.0
# What one reference unit returns; checked on every sample.
REF_RESULT = (1233, 136)


class _Event:
    __slots__ = ("t", "kind", "size")

    def __init__(self, t: float, kind: int, size: int):
        self.t = t
        self.kind = kind
        self.size = size


def reference_unit(n: int = 6000) -> tuple:
    """A fixed discrete-event loop; returns (rows written, counter keys)."""
    heap: list = []
    counts: dict = {}
    rows: List[str] = []
    t = 0.0
    for seq in range(n):
        heapq.heappush(heap, (t + (seq * 7919 % 997) * 0.37, seq, _Event(t, seq % 17, 160 + seq % 40)))
        if len(heap) > 512:
            t, _, ev = heapq.heappop(heap)
            key = (ev.kind, ev.size & 7)
            counts[key] = counts.get(key, 0) + ev.size
            if ev.size > 190:
                rows.append(f"{ev.t:.3f},{ev.kind},{ev.size}")
    return len(rows), len(counts)


class HostSpeed:
    """Reference-kernel samples interleaved with the measured work of one run."""

    def __init__(self) -> None:
        self.at: List[float] = []  # perf_counter() midpoint of each sample
        self.took: List[float] = []  # its duration
        self.sampled_s = 0.0
        self.measured_s = 0.0
        self._sample()  # first call warms the kernel's code paths

    def _sample(self) -> tuple:
        # The kernel makes no reference cycles; the collector stays out
        # of its timing.
        gc.disable()
        try:
            start = time.perf_counter()
            result = reference_unit()
            end = time.perf_counter()
        finally:
            gc.enable()
        if result != REF_RESULT:
            raise RuntimeError(f"reference kernel returned {result}, expected {REF_RESULT}")
        return start, end

    def account(self, seconds: float) -> None:
        """Count `seconds` of measured work, then sample until the share is met."""
        self.measured_s += seconds
        while self.sampled_s < REF_SHARE * self.measured_s:
            self._record()

    def _record(self) -> None:
        start, end = self._sample()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.sampled_s += end - start

    def scale_at(self, t: float) -> float:
        """Speed scale for work done around perf_counter() moment `t`."""
        if not self.took:
            self._record()
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if lo == hi:  # nothing within the window: the nearest sample
            i = min(lo, len(self.at) - 1)
            if i > 0 and t - self.at[i - 1] < self.at[i] - t:
                i -= 1
            lo, hi = i, i + 1
        return REF_UNIT_S / statistics.fmean(self.took[lo:hi])
