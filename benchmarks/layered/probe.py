"""The machine-speed probe every host time is divided by.

The sandbox's effective CPU speed drifts by +-20 % in phases of several
seconds (a fixed pure-Python loop shows it), which no amount of
repetition inside one invocation averages out.  Every timed region is
therefore bracketed by this fixed kernel — a small generator-and-heap
event loop, the simulator's own instruction mix — and reported relative
to it.  The kernel is part of the metrics' definition: changing it
rescales every ``host_s`` and ``setup_s``.

Stdlib only, so a child can run it before it imports ``repro``.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds the probe takes on the machine host times are expressed for.
PROBE_REFERENCE_S = 0.075
_PROBE_ROUNDS = 6


def _probe_process(count: int, rows: list):
    for index in range(count):
        rows.append((index, str(index), index * 0.5))
        yield (index % 13) * 0.1


def _probe_kernel() -> int:
    rows: list = []
    heap = [(0.0, sequence, _probe_process(2500, rows))
            for sequence in range(8)]
    sequence = len(heap)
    seen: dict = {}
    while heap:
        now, _, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        seen[sequence % 997] = seen.get(sequence % 997, 0) + 1
        heapq.heappush(heap, (now + delay, sequence, process))
        sequence += 1
    return len(rows)


def speed_probe() -> float:
    # Collector off: a collection triggered by the probe's allocations
    # would cost in proportion to the workload's live heap, and the
    # probe must not depend on the program it is the yardstick for.
    gc.disable()
    try:
        _probe_kernel()  # untimed: a cold interpreter's first round is slow
        started = time.perf_counter()
        for _ in range(_PROBE_ROUNDS):
            _probe_kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()


def normalised(raw_s: float, probe_before: float, probe_after: float
               ) -> float:
    """``raw_s`` on a machine on which the probe takes the reference."""
    return raw_s / ((probe_before + probe_after) / 2.0 / PROBE_REFERENCE_S)
