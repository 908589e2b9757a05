"""Self-monitoring counters for subplan evaluation.

Implements the measurement side of the paper's self-monitoring
operators [10]: per-instance tallies of tuples consumed/produced,
thread idle (wait) time, and processing time, plus the per-batch
accumulators from which exchange producers derive M1 events every
``m1_interval`` produced tuples.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class SubplanMetrics:
    """Counters for one subplan instance (one evaluator thread)."""

    instance_id: str
    consumed: int = 0
    produced: int = 0
    wait_ms_total: float = 0.0
    elapsed_ms_total: float = 0.0
    # Accumulators since the last M1 emission.
    batch_produced: int = 0
    batch_wait_ms: float = 0.0
    batch_elapsed_ms: float = 0.0

    def record_wait(self, wait_ms: float) -> None:
        """A leaf operator waited ``wait_ms`` for input."""
        self.wait_ms_total += wait_ms
        self.batch_wait_ms += wait_ms

    def record_consumed(self, count: int = 1) -> None:
        self.consumed += count

    def record_iteration(self, elapsed_ms: float, produced: int) -> None:
        """One pump iteration took ``elapsed_ms`` and produced tuples."""
        self.elapsed_ms_total += elapsed_ms
        self.batch_elapsed_ms += elapsed_ms
        self.produced += produced
        self.batch_produced += produced

    @property
    def selectivity(self) -> float:
        """Output/input ratio so far (1.0 before any input)."""
        if self.consumed == 0:
            return 1.0
        return self.produced / self.consumed

    def drain_batch(self) -> tuple[float, float, int]:
        """Return and reset (cost_per_tuple, avg_wait, batch_produced).

        ``cost_per_tuple`` is processing time — elapsed minus wait — per
        produced tuple over the batch, matching M1's "cost of processing
        an incoming tuple" with the idle time reported separately.
        """
        produced = self.batch_produced
        wait = self.batch_wait_ms
        processing = max(0.0, self.batch_elapsed_ms - wait)
        self.batch_produced = 0
        self.batch_wait_ms = 0.0
        self.batch_elapsed_ms = 0.0
        if produced == 0:
            return 0.0, 0.0, 0
        return processing / produced, wait / produced, produced
