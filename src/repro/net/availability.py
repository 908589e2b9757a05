"""Each machine's freezes and failures, known before they happen: the
schedule the wire reads (decision 41)."""

from __future__ import annotations

import bisect
import math

from repro.errors import ConfigurationError


def check_instant(at_ms: float, what: str = "at_ms") -> float:
    if not (math.isfinite(at_ms) and at_ms >= 0):
        raise ConfigurationError(f"{what} must be finite and >= 0: {at_ms}")
    return at_ms


def check_stall(at_ms: float, duration_ms: float) -> None:
    check_instant(at_ms, "freeze at_ms")
    if not (math.isfinite(duration_ms) and duration_ms > 0):
        raise ConfigurationError(
            f"freeze duration must be finite and > 0: {duration_ms}")


class Availability:
    """One machine's stalls, ``(start, end)`` in time order with
    overlapping or touching ones merged, and the instants it crashes or
    its services fail.  A service goes down at the first of these at or
    after its creation: one deployed after a failure lives on."""

    __slots__ = ("frozen", "down")

    def __init__(self) -> None:
        self.frozen: list[tuple[float, float]] = []
        self.down: list[float] = []

    def freeze(self, at_ms: float, duration_ms: float) -> None:
        check_stall(at_ms, duration_ms)
        start, end = at_ms, at_ms + duration_ms
        kept = []
        for stall in self.frozen:
            if stall[1] < start or stall[0] > end:
                kept.append(stall)
            else:
                start, end = min(start, stall[0]), max(end, stall[1])
        self.frozen = sorted([*kept, (start, end)])

    def fail(self, at_ms: float) -> None:
        if check_instant(at_ms) not in self.down:
            bisect.insort(self.down, at_ms)

    def thaw(self, now: float) -> float:
        """The end of the stall ``now`` falls in, or ``now``."""
        for start, end in self.frozen:
            if start <= now < end:
                return end
        return now

    def down_at(self, born: float) -> float:
        """When a service created at ``born`` goes down (inf: never)."""
        for at in self.down:
            if at >= born:
                return at
        return math.inf

    def holds(self, when: float) -> bool:
        """Whether a mailbox holds what arrives at ``when``: in a stall,
        its end included (the thaw drain runs among its events)."""
        return any(start <= when <= end for start, end in self.frozen)


#: The table of a machine that never stalls or fails.
ALWAYS = Availability()
