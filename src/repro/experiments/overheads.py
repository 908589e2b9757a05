"""The §3.2 "Overheads" experiments.

Three parts:

1. **Overhead decomposition** — Q1 without perturbation, adaptivity
   enabled: prospective overhead ~6%, retrospective ~15% (log
   management), reported together with the resulting tuple-distribution
   ratio between the two machines (paper: 1.21 prospective, 1.01
   retrospective — retrospective runs end nearly perfectly balanced).
2. **Monitoring frequency sweep** — Q1 with a 10x perturbation while
   the engine emits one M1 event per 0 (monitoring off), 10, 20 or 30
   tuples.  Both adaptation quality and overhead should be insensitive.
3. **Notification funnel** — raw engine events (100-300) vs detector ->
   diagnoser notifications (~10) vs actual rebalancings (1-3): the
   components filter effectively and no message flooding occurs.

Both tables declare their entries as :class:`Stat` fields of one
:func:`query_cell` per run, filled by :func:`run_table`.
"""

from __future__ import annotations

import functools

from repro.config import AdaptivityConfig, RESPONSE_R1, RESPONSE_R2
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    query_cell,
    run_table,
)
from repro.workloads.scenarios import perturb_transient_load, perturb_ws_cost

M1_INTERVALS = (0, 10, 20, 30)

#: Overhead rows: (name, response policy, paper time, paper ratio).
RESPONSES = (("prospective", RESPONSE_R2, 1.062, 1.21),
             ("retrospective", RESPONSE_R1, 1.15, 1.01))

#: (environment, perturbation of the nominally equal services).
ENVIRONMENTS = (("stable", None), ("fluctuating", perturb_transient_load))

BASELINE = query_cell("Q1:baseline")


def run_overheads(jobs: int = 1) -> ExperimentReport:
    """Unperturbed Q1: adaptivity overhead and final tuple ratio.

    Two variants per response type: a perfectly stable environment
    (no redistribution ever triggers) and one with per-call noise,
    where the system may adapt even though the services are nominally
    identical — the paper's "unnecessary adaptivity" case.
    """
    rows = []
    for name, response, paper, paper_ratio in RESPONSES:
        for environment, perturb in ENVIRONMENTS:
            cell = query_cell(f"Q1:{name}:{environment}", perturb=perturb,
                              adaptivity=AdaptivityConfig(response=response))
            rows.append([name, environment, Stat(cell, per=BASELINE), paper,
                         Stat(cell, field="consumer_imbalance_ratio"),
                         paper_ratio,
                         Stat(cell, field="adaptations_accepted")])
    return ExperimentReport(
        experiment_id="overheads",
        title="Q1 adaptivity overhead without imbalance (§3.2)",
        columns=["response", "environment", "normalised time", "paper",
                 "tuple ratio", "paper ratio", "rebalances"],
        rows=run_table(rows, jobs),
        notes=("The fluctuating environment adds per-call noise so the "
               "system occasionally adapts although both services are "
               "nominally equal, as in the paper's real testbed."))


def run_monitoring_frequency(jobs: int = 1) -> ExperimentReport:
    """Q1 with 10x perturbation under different monitoring rates."""
    perturb = functools.partial(perturb_ws_cost, factor=10.0)
    rows = []
    for interval in M1_INTERVALS:
        cell = query_cell(
            f"Q1:10x:m1/{interval}", perturb=perturb,
            adaptivity=(AdaptivityConfig(m1_interval=interval)
                        if interval else None))
        rows.append([f"1 per {interval} tuples" if interval else "off",
                     Stat(cell, per=BASELINE),
                     Stat(cell, field="raw_monitoring_events"),
                     Stat(cell, field="cost_notifications"),
                     Stat(cell, field="adaptations_accepted")])
    return ExperimentReport(
        experiment_id="monitoring",
        title="Q1 @10x under different monitoring frequencies (§3.2)",
        columns=["monitoring", "normalised time", "raw events",
                 "detector notifications", "rebalances"],
        rows=run_table(rows, jobs),
        notes=("Expected: adaptation quality and overhead insensitive to "
               "the monitoring frequency; raw events in the hundreds, "
               "detector->diagnoser notifications around ten, 1-3 "
               "rebalances — no flooding."))
