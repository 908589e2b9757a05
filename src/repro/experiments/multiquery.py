"""Multi-query scheduling: throughput and latency under offered load.

Not a figure from the paper — the paper adapts one query at a time —
but the ROADMAP's heavy-traffic direction: an open-loop Poisson
workload over the Q1/Q2 catalog is driven into the scheduler at
increasing arrival rates and concurrency limits, reporting admission
behaviour, throughput and response-time percentiles.  Each session
adapts with the default A1/R2 policies while contending for shared
machines through the fair-share capacity model.
"""

from __future__ import annotations

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    drive_workload,
)
from repro.sched import WorkloadSpec
from repro.workloads import DemoGridSpec, Q1, Q2

#: Small relations keep a dozen full workload runs fast.
SPEC = DemoGridSpec(sequences_cardinality=120,
                    interactions_cardinality=180,
                    sequence_length=20,
                    compute_machines=2)

ARRIVAL_RATES_QPS = (0.2, 0.5, 1.0)
CONCURRENCY_LIMITS = (1, 4, 16)
DURATION_MS = 20000.0
MAX_QUEUED = 8


def drive(arrival_rate_qps: float, max_concurrent: int,
          seed: int = 0):
    """One open-loop run; returns the driver's report."""
    return drive_workload(
        SPEC, seed,
        SchedulerConfig(max_concurrent=max_concurrent,
                        max_queued=MAX_QUEUED),
        WorkloadSpec(arrival_rate_qps=arrival_rate_qps,
                     duration_ms=DURATION_MS,
                     catalog=(Q1, Q2),
                     adaptivity=AdaptivityConfig(decision_latency_ms=300.0)),
        rate_qps=arrival_rate_qps, max_concurrent=max_concurrent)


def _load_cell(arrival_rate_qps: float, max_concurrent: int) -> list:
    """One open-loop run, reduced to its report row."""
    report = drive(arrival_rate_qps, max_concurrent)
    return [
        max_concurrent, arrival_rate_qps, report.offered, report.rejected,
        round(report.throughput_qps, 2),
        round(report.queue_wait_p95_ms / 1000.0, 2),
        round(report.response_p50_ms / 1000.0, 2),
        round(report.response_p95_ms / 1000.0, 2),
    ]


def run(jobs: int = 1) -> ExperimentReport:
    rows = SweepRunner(jobs).run([
        SweepCell(f"mq:c{max_concurrent}:r{rate:g}", _load_cell,
                  {"arrival_rate_qps": rate,
                   "max_concurrent": max_concurrent})
        for max_concurrent in CONCURRENCY_LIMITS
        for rate in ARRIVAL_RATES_QPS
    ])
    return ExperimentReport(
        experiment_id="multiquery",
        title="Scheduler throughput/latency vs offered load "
              f"(open-loop Poisson, {DURATION_MS / 1000.0:g}s window)",
        columns=["max_conc", "rate_qps", "offered", "rejected",
                 "tput_qps", "wait_p95_s", "resp_p50_s", "resp_p95_s"],
        rows=rows,
        notes="Open-loop arrivals do not back off, so offered load "
              "beyond capacity surfaces as queue wait and, once the "
              "admission queue fills, rejections.")
