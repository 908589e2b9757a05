"""Figure 5: rapid changes of resource performance.

The WS cost factor on the perturbed machine varies *per incoming
tuple*, normally distributed with a stable mean of 30x: ranges
[30,30] (the stable reference), [25,35], [20,40] and [1,60].  Both
prospective and retrospective adaptations are run; the paper's claim
is that performance under varying perturbations stays close to the
stable-perturbation case, i.e. the system adapts efficiently to rapid
changes.

The sweep is declared as :class:`SweepCell` data (a baseline cell plus
one cell per (range, response policy) point) for the parallel sweep
runner.
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
from repro.workloads.scenarios import perturb_ws_cost_varying

RANGES = ((30.0, 30.0), (25.0, 35.0), (20.0, 40.0), (1.0, 60.0))


def cells() -> list[SweepCell]:
    sweep = [SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"})]
    for low, high in RANGES:
        perturb = functools.partial(perturb_ws_cost_varying,
                                    low=low, high=high)
        for response in (RESPONSE_R2, RESPONSE_R1):
            sweep.append(SweepCell(
                f"Q1:[{low:g},{high:g}]:{response}", stats_cell,
                {"query_key": "Q1", "perturb": perturb,
                 "adaptivity": AdaptivityConfig(response=response)}))
    return sweep


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Fig. 5."""
    values = SweepRunner(jobs).run(cells())
    baseline_ms, points = values[0], iter(values[1:])
    rows = []
    for low, high in RANGES:
        prospective = next(points).response_time_ms / baseline_ms
        retrospective = next(points).response_time_ms / baseline_ms
        rows.append([f"[{low:.0f},{high:.0f}]", prospective, retrospective])
    return ExperimentReport(
        experiment_id="fig5",
        title="Q1 under changing perturbations, mean 30x (Fig. 5)",
        columns=["range", "prospective", "retrospective"],
        rows=rows,
        notes=("Expected shape: each column stays close to its [30,30] "
               "stable-perturbation value across all ranges."))
