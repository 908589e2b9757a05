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

Both sweeps are declared as :class:`SweepCell` data (a baseline cell
plus one cell per measured run) for the parallel sweep runner.
"""

from __future__ import annotations

import functools

from repro.config import AdaptivityConfig, RESPONSE_R1, RESPONSE_R2
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    baseline_cell,
    stats_cell,
)
from repro.workloads.scenarios import perturb_transient_load, perturb_ws_cost

M1_INTERVALS = (0, 10, 20, 30)

#: Overhead rows: (name, response policy, paper time, paper ratio).
RESPONSES = (("prospective", RESPONSE_R2, 1.062, 1.21),
             ("retrospective", RESPONSE_R1, 1.15, 1.01))

#: (environment, perturbation of the nominally equal services).
ENVIRONMENTS = (("stable", None), ("fluctuating", perturb_transient_load))

BASELINE = SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"})


def run_overheads(jobs: int = 1) -> ExperimentReport:
    """Unperturbed Q1: adaptivity overhead and final tuple ratio.

    Two variants per response type: a perfectly stable environment
    (no redistribution ever triggers) and one with per-call noise,
    where the system may adapt even though the services are nominally
    identical — the paper's "unnecessary adaptivity" case.
    """
    cells = [BASELINE]
    for name, response, _paper, _paper_ratio in RESPONSES:
        for environment, perturb in ENVIRONMENTS:
            cells.append(SweepCell(
                f"Q1:{name}:{environment}", stats_cell,
                {"query_key": "Q1", "perturb": perturb,
                 "adaptivity": AdaptivityConfig(response=response)}))
    baseline_ms, *runs = SweepRunner(jobs).run(cells)
    runs = iter(runs)
    rows = []
    for name, _response, paper, paper_ratio in RESPONSES:
        for environment, _perturb in ENVIRONMENTS:
            run = next(runs)
            rows.append([name, environment,
                         run.response_time_ms / baseline_ms, paper,
                         run.consumer_imbalance_ratio, paper_ratio,
                         run.adaptations_accepted])
    return ExperimentReport(
        experiment_id="overheads",
        title="Q1 adaptivity overhead without imbalance (§3.2)",
        columns=["response", "environment", "normalised time", "paper",
                 "tuple ratio", "paper ratio", "rebalances"],
        rows=rows,
        notes=("The fluctuating environment adds per-call noise so the "
               "system occasionally adapts although both services are "
               "nominally equal, as in the paper's real testbed."))


def run_monitoring_frequency(jobs: int = 1) -> ExperimentReport:
    """Q1 with 10x perturbation under different monitoring rates."""
    perturb = functools.partial(perturb_ws_cost, factor=10.0)
    baseline_ms, *runs = SweepRunner(jobs).run([BASELINE] + [
        SweepCell(f"Q1:10x:m1/{interval}", stats_cell,
                  {"query_key": "Q1", "perturb": perturb,
                   "adaptivity": (AdaptivityConfig(m1_interval=interval)
                                  if interval else None)})
        for interval in M1_INTERVALS])
    rows = []
    for interval, run in zip(M1_INTERVALS, runs):
        rows.append([f"1 per {interval} tuples" if interval else "off",
                     run.response_time_ms / baseline_ms,
                     run.raw_monitoring_events, run.cost_notifications,
                     run.adaptations_accepted])
    return ExperimentReport(
        experiment_id="monitoring",
        title="Q1 @10x under different monitoring frequencies (§3.2)",
        columns=["monitoring", "normalised time", "raw events",
                 "detector notifications", "rebalances"],
        rows=rows,
        notes=("Expected: adaptation quality and overhead insensitive to "
               "the monitoring frequency; raw events in the hundreds, "
               "detector->diagnoser notifications around ten, 1-3 "
               "rebalances — no flooding."))
