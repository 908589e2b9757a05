"""Extension experiment: the cost of surviving machine failures.

Not part of the paper's evaluation (its fault-tolerance substrate [18]
is cited, not measured), but a natural question for the system this
repository builds: what does losing an evaluation machine cost, and
how does it compose with adaptive rebalancing?

Q1 runs with fault tolerance enabled; one compute machine crashes at
different points of the run (early feed, late feed, processing tail),
with a spare standing by.  Reported values are normalised to the
failure-free run under the same configuration.

The sweep is declared as :class:`SweepCell` data (the failure-free
baseline cell plus one cell per failure time) for the parallel sweep
runner.
"""

from __future__ import annotations

import functools

from repro.config import EngineConfig, FaultToleranceConfig
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    stats_cell,
)
from repro.workloads.proteins import DemoGrid, DemoGridSpec

FAILURE_TIMES_MS = (3000.0, 12000.0, 19000.0)

#: A static Q1 on a grid with a spare and fault tolerance on.  The
#: default engine config keeps recovery logging on: replay after a
#: crash needs the log although the run does not adapt.
_RUN = {"query_key": "Q1", "spec": DemoGridSpec(spare_machines=1),
        "engine_config": EngineConfig(),
        "fault_tolerance": FaultToleranceConfig(enabled=True)}


def cells() -> list[SweepCell]:
    sweep = [SweepCell("Q1+ft:baseline", stats_cell, _RUN)]
    for fail_at in FAILURE_TIMES_MS:
        crash = functools.partial(DemoGrid.fail_machine_at,
                                  machine_name="compute-2", at_ms=fail_at)
        sweep.append(SweepCell(f"Q1+ft:crash@{fail_at:g}ms", stats_cell,
                               dict(_RUN, perturb=crash)))
    return sweep


def run(jobs: int = 1) -> ExperimentReport:
    """Failure-time sweep for Q1 (extension; not a paper artefact)."""
    baseline, *crashed = SweepRunner(jobs).run(cells())
    rows = []
    for fail_at, stats in zip(FAILURE_TIMES_MS, crashed):
        rows.append([f"{fail_at / 1000.0:.0f}s",
                     stats.response_time_ms / baseline.response_time_ms,
                     stats.machines_recovered,
                     stats.tuples_replayed_for_recovery, stats.result_count])
    return ExperimentReport(
        experiment_id="recovery",
        title="Q1 under machine failure with log-replay recovery "
              "(extension)",
        columns=["failure at", "normalised time", "recovered",
                 "tuples replayed", "results"],
        rows=rows,
        notes=("Normalised to the failure-free run (fault tolerance "
               "enabled, recovery logging on).  Every run returns the "
               "complete result set; the overhead is the detection "
               "delay plus reprocessing the replayed backlog."))
