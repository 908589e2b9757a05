"""Figure 5: rapid changes of resource performance.

The WS cost factor on the perturbed machine varies *per incoming
tuple*, normally distributed with a stable mean of 30x: ranges
[30,30] (the stable reference), [25,35], [20,40] and [1,60].  Both
prospective and retrospective adaptations are run; the paper's claim
is that performance under varying perturbations stays close to the
stable-perturbation case, i.e. the system adapts efficiently to rapid
changes.

Each point is a :class:`Stat` of one :func:`query_cell` over the
unperturbed static cell, filled by :func:`run_table`.
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
from repro.workloads.scenarios import perturb_ws_cost_varying

RANGES = ((30.0, 30.0), (25.0, 35.0), (20.0, 40.0), (1.0, 60.0))


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Fig. 5."""
    baseline = query_cell("Q1:baseline")
    rows = [[f"[{low:.0f},{high:.0f}]"] + [
        Stat(query_cell(
            f"Q1:[{low:g},{high:g}]:{response}",
            perturb=functools.partial(perturb_ws_cost_varying,
                                      low=low, high=high),
            adaptivity=AdaptivityConfig(response=response)),
            per=baseline)
        for response in (RESPONSE_R2, RESPONSE_R1)]
        for low, high in RANGES]
    return ExperimentReport(
        experiment_id="fig5",
        title="Q1 under changing perturbations, mean 30x (Fig. 5)",
        columns=["range", "prospective", "retrospective"],
        rows=run_table(rows, jobs),
        notes=("Expected shape: each column stays close to its [30,30] "
               "stable-perturbation value across all ranges."))
