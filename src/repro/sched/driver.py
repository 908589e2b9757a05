"""Open-loop workload generation against the multi-query scheduler.

The :class:`WorkloadDriver` models the ROADMAP's heavy-traffic goal in
miniature: queries arrive as a Poisson process (exponential
inter-arrival times from a named, seeded random stream) drawn
round-robin-free from a catalog of query texts, are submitted to a
:class:`~repro.sched.scheduler.QueryScheduler`, and rejections are
counted rather than retried — the arrivals do not slow down when the
grid saturates, which is exactly what exposes the admission queue and
the fair-share contention model.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.config import AdaptivityConfig
from repro.errors import AdmissionRejected
from repro.sched.scheduler import QueryScheduler
from repro.telemetry.metrics import percentile


def report_percentile(values: typing.Sequence[float],
                      fraction: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 when no session
    completed."""
    return percentile(values, fraction) if values else 0.0


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one open-loop run."""

    #: Mean offered load, in queries per simulated second.
    arrival_rate_qps: float
    #: Arrival window; queries in flight at the horizon still finish.
    duration_ms: float
    #: Query texts sampled uniformly per arrival.
    catalog: tuple
    #: Adaptivity configuration for every session (None = static).
    adaptivity: AdaptivityConfig | None = None
    #: Parallelism cap per session (None = whole pool).
    degree: int | None = None

    def __post_init__(self) -> None:
        # NaN fails both comparisons; an infinite window never stops
        # arriving, and an infinite rate arrives without end at once.
        if not 0 < self.arrival_rate_qps < math.inf:
            raise ValueError(f"arrival rate must be finite and positive: "
                             f"{self.arrival_rate_qps}")
        if not 0 < self.duration_ms < math.inf:
            raise ValueError(
                f"duration must be finite and positive: {self.duration_ms}")
        if not self.catalog:
            raise ValueError("catalog must not be empty")


@dataclasses.dataclass
class WorkloadReport:
    """Outcome of one driven run."""

    offered: int
    admitted: int
    rejected: int
    completed: int
    #: Sessions that settled with a typed failure (includes timeouts).
    failed: int
    #: Retry dispatches performed across all sessions.
    retried: int
    #: Sessions aborted by the per-query deadline.
    timed_out: int
    #: Completed share of terminally-settled sessions.
    availability: float
    #: Simulated milliseconds burnt by attempts that did not complete.
    wasted_work_ms: float
    #: Completions per simulated second over the whole run.
    throughput_qps: float
    queue_wait_p50_ms: float
    queue_wait_p95_ms: float
    response_p50_ms: float
    response_p95_ms: float
    #: Busy fraction per machine over the scheduler's lifetime.
    machine_utilisation: dict
    #: Simulated time when the last session completed.
    makespan_ms: float


class WorkloadDriver:
    """Drives Poisson arrivals from the catalog into the scheduler."""

    def __init__(self, scheduler: QueryScheduler,
                 spec: WorkloadSpec) -> None:
        self.scheduler = scheduler
        self.spec = spec
        self.env = scheduler.env
        #: Deterministic from the grid's master seed: two drivers over
        #: identically-seeded grids replay the same arrival sequence.
        self._rng = scheduler.context.random.stream("workload-driver")
        self.offered = 0

    def _arrivals(self) -> typing.Generator:
        mean_gap_ms = 1000.0 / self.spec.arrival_rate_qps
        horizon = self.env.now + self.spec.duration_ms
        while True:
            gap = self._rng.expovariate(1.0 / mean_gap_ms)
            if self.env.now + gap >= horizon:
                return
            yield self.env.timeout(gap)
            query_text = self._rng.choice(self.spec.catalog)
            self.offered += 1
            try:
                self.scheduler.submit(query_text,
                                      adaptivity=self.spec.adaptivity,
                                      degree=self.spec.degree)
            except AdmissionRejected:
                pass  # the scheduler counts it

    def run(self) -> WorkloadReport:
        """Generate arrivals, drain the grid, and summarise."""
        started = self.env.now
        arrivals = self.env.process(self._arrivals(),
                                    name="workload-driver")
        self.env.run(until=arrivals)
        self.scheduler.drain()
        stats = self.scheduler.statistics()
        makespan = self.env.now - started
        throughput = (stats.completed / (makespan / 1000.0)
                      if makespan > 0 else 0.0)
        return WorkloadReport(
            offered=self.offered,
            admitted=stats.admitted,
            rejected=stats.rejected,
            completed=stats.completed,
            failed=stats.failed,
            retried=stats.retried,
            timed_out=stats.timed_out,
            availability=stats.availability,
            wasted_work_ms=stats.wasted_work_ms,
            throughput_qps=throughput,
            queue_wait_p50_ms=report_percentile(stats.queue_waits_ms, 0.50),
            queue_wait_p95_ms=report_percentile(stats.queue_waits_ms, 0.95),
            response_p50_ms=report_percentile(stats.response_ms, 0.50),
            response_p95_ms=report_percentile(stats.response_ms, 0.95),
            machine_utilisation=stats.machine_utilisation,
            makespan_ms=makespan)
