"""Query-level fault tolerance: availability under permanent crashes.

Not a figure from the paper — its testbed never loses a machine for
good — but the natural stress test of the fault-tolerance machinery
the paper's R1 response rides on [18]: an open-loop workload runs
while zero, one or two compute machines crash permanently mid-window.
Sessions recover (spare, then double-up), retry on a blacklisted
placement when recovery is exhausted, and settle with a typed failure
when nothing else is left.  The sweep reports the availability
(success rate), retry/timeout counts, p95 response and wasted work at
two concurrency levels — the grid's degradation curve as machines
disappear.
"""

from __future__ import annotations

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    drive_workload,
)
from repro.sched import WorkloadSpec
from repro.workloads import DemoGridSpec, Q1, Q2, compute_machine_name

#: Small relations keep a dozen crash-recovery workload runs fast.
SPEC = DemoGridSpec(sequences_cardinality=120,
                    interactions_cardinality=180,
                    sequence_length=20,
                    compute_machines=3,
                    spare_machines=1)

#: Staggered crash times: the second loss lands after the first
#: recovery has settled, so the spare is already consumed.
CRASH_TIMES_MS = (4000.0, 12000.0)
CRASH_COUNTS = (0, 1, 2)
CONCURRENCY_LIMITS = (4, 16)
ARRIVAL_RATE_QPS = 0.5
DURATION_MS = 20000.0
MAX_QUEUED = 32

#: Fast failure detection with a zero recovery budget: every machine
#: loss escalates past the DQP layer to the scheduler, whose retry
#: policy re-places the whole query away from the machine that sank
#: it — the sweep then shows the retry/blacklist path, not just the
#: (already benchmarked) in-flight evaluator recovery.
FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0, max_recoveries=0)

SCHEDULER_RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=200.0,
                              backoff_cap_ms=2000.0)


def drive(crashes: int, max_concurrent: int, seed: int = 0):
    """One open-loop run under ``crashes`` permanent machine losses."""
    schedule = tuple(
        MachineCrash(compute_machine_name(index + 1),
                     at_ms=CRASH_TIMES_MS[index])
        for index in range(crashes))
    return drive_workload(
        SPEC, seed,
        SchedulerConfig(max_concurrent=max_concurrent,
                        max_queued=MAX_QUEUED, retry=SCHEDULER_RETRY),
        WorkloadSpec(arrival_rate_qps=ARRIVAL_RATE_QPS,
                     duration_ms=DURATION_MS,
                     catalog=(Q1, Q2),
                     adaptivity=AdaptivityConfig.disabled(),
                     degree=2),
        fault_tolerance=FT,
        chaos=ChaosConfig.lossy(crashes=schedule) if schedule else None,
        crashes=crashes, max_concurrent=max_concurrent)


def _resilience_cell(crashes: int, max_concurrent: int) -> list:
    """One crash-rate/concurrency run, reduced to its report row."""
    report = drive(crashes, max_concurrent)
    return [
        max_concurrent, crashes, report.admitted, report.completed,
        report.failed, report.retried, report.timed_out,
        round(report.availability, 3),
        round(report.response_p95_ms / 1000.0, 2),
        round(report.wasted_work_ms / 1000.0, 2),
    ]


def run(jobs: int = 1) -> ExperimentReport:
    rows = SweepRunner(jobs).run([
        SweepCell(f"res:c{max_concurrent}:x{crashes}", _resilience_cell,
                  {"crashes": crashes, "max_concurrent": max_concurrent})
        for max_concurrent in CONCURRENCY_LIMITS
        for crashes in CRASH_COUNTS
    ])
    return ExperimentReport(
        experiment_id="resilience",
        title="Availability and wasted work vs permanent machine "
              f"crashes (open-loop {ARRIVAL_RATE_QPS:g} q/s, "
              f"{DURATION_MS / 1000.0:g}s window)",
        columns=["max_conc", "crashes", "admitted", "succeeded",
                 "failed", "retried", "timed_out", "availability",
                 "resp_p95_s", "wasted_s"],
        rows=rows,
        notes="A crashed machine fails its in-flight queries (zero "
              "recovery budget); the scheduler retries each one on a "
              "placement that blacklists the machine that sank it.  "
              "Failures are typed outcomes, never hangs: admitted "
              "always equals succeeded plus failed once the grid "
              "drains.")
