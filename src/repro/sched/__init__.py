"""Multi-query scheduling: concurrent sessions on a shared grid.

This subsystem layers three things on the single-query GDQS:

* :class:`QueryScheduler` — bounded admission (``max_concurrent``
  running, ``max_queued`` waiting, typed rejection beyond that) and
  synchronous dispatch, so concurrency one is event-for-event the
  pre-scheduler path;
* :class:`FairShare` — capacity-share charging that makes concurrent
  sessions' morsel CPU bursts contend on shared machines, feeding the
  paper's unchanged monitor/assess/respond loop;
* :class:`WorkloadDriver` — seeded open-loop Poisson arrivals over a
  query catalog, with throughput/latency percentile reporting.
"""

from repro.sched.driver import WorkloadDriver, WorkloadReport, WorkloadSpec
from repro.sched.fairshare import FairShare
from repro.sched.health import MachineHealth
from repro.sched.scheduler import QueryScheduler, SchedulerStatistics
from repro.sched.session import (
    QuerySession,
    STATE_COMPLETED,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RETRYING,
    STATE_RUNNING,
    TERMINAL_STATES,
)

__all__ = [
    "FairShare",
    "MachineHealth",
    "QueryScheduler",
    "QuerySession",
    "SchedulerStatistics",
    "STATE_COMPLETED",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RETRYING",
    "STATE_RUNNING",
    "TERMINAL_STATES",
    "WorkloadDriver",
    "WorkloadReport",
    "WorkloadSpec",
]
