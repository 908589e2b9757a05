"""Extension experiment: the cost of surviving machine failures.

Not part of the paper's evaluation (its fault-tolerance substrate [18]
is cited, not measured), but a natural question for the system this
repository builds: what does losing an evaluation machine cost, and
how does it compose with adaptive rebalancing?

Q1 runs with fault tolerance enabled; one compute machine crashes at
different points of the run (early feed, late feed, processing tail),
with a spare standing by.  Reported values are normalised to the
failure-free run under the same configuration.

Each row reads one crash run's :class:`Stat` entries, normalised to
the failure-free :func:`query_cell`, filled by :func:`run_table`.
"""

from __future__ import annotations

import functools

from repro.config import EngineConfig, FaultToleranceConfig
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    query_cell,
    run_table,
)
from repro.workloads.proteins import DemoGrid, DemoGridSpec

FAILURE_TIMES_MS = (3000.0, 12000.0, 19000.0)

#: A static Q1 on a grid with a spare and fault tolerance on.  The
#: default engine config keeps recovery logging on: replay after a
#: crash needs the log although the run does not adapt.
_RUN = {"spec": DemoGridSpec(spare_machines=1),
        "engine_config": EngineConfig(),
        "fault_tolerance": FaultToleranceConfig(enabled=True)}


def run(jobs: int = 1) -> ExperimentReport:
    """Failure-time sweep for Q1 (extension; not a paper artefact)."""
    baseline = query_cell("Q1+ft:baseline", **_RUN)
    rows = []
    for fail_at in FAILURE_TIMES_MS:
        crash = query_cell(
            f"Q1+ft:crash@{fail_at:g}ms", **_RUN,
            perturb=functools.partial(DemoGrid.fail_machine_at,
                                      machine_name="compute-2",
                                      at_ms=fail_at))
        rows.append([f"{fail_at / 1000.0:.0f}s", Stat(crash, per=baseline),
                     Stat(crash, field="machines_recovered"),
                     Stat(crash, field="tuples_replayed_for_recovery"),
                     Stat(crash, field="result_count")])
    return ExperimentReport(
        experiment_id="recovery",
        title="Q1 under machine failure with log-replay recovery "
              "(extension)",
        columns=["failure at", "normalised time", "recovered",
                 "tuples replayed", "results"],
        rows=run_table(rows, jobs),
        notes=("Normalised to the failure-free run (fault tolerance "
               "enabled, recovery logging on).  Every run returns the "
               "complete result set; the overhead is the detection "
               "delay plus reprocessing the replayed backlog."))
