"""Figure 4: varying the number of perturbed machines.

Q1 runs on three WS machines; 0, 1, 2 or all 3 of them are perturbed
(WS 10x/20x/30x costlier), with retrospective adaptations.  With at
least one unperturbed machine the adaptive system degrades very
gracefully and almost independently of the perturbation magnitude; the
static system degrades by up to an order of magnitude.

Each of the 24 points is a :class:`Stat` of one :func:`query_cell`
over the unperturbed static cell, filled by :func:`run_table`.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    query_cell,
    run_table,
)
from repro.workloads.proteins import DemoGridSpec
from repro.workloads.scenarios import perturb_ws_cost

FACTORS = (10.0, 20.0, 30.0)
PERTURBED_COUNTS = (0, 1, 2, 3)

#: The three-WS-machine deployment of Fig. 4.
FIG4_SPEC = dataclasses.replace(DemoGridSpec(), compute_machines=3)


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Fig. 4(a)-(c) as one table."""
    baseline = query_cell("Q1x3:baseline", spec=FIG4_SPEC)
    rows = [[f"{factor:.0f} times", count] + [
        Stat(query_cell(
            f"Q1x3:{factor:g}x:{count}pert:"
            f"{'adaptive' if enabled else 'static'}",
            perturb=functools.partial(perturb_ws_cost, factor=factor,
                                      machines=count),
            spec=FIG4_SPEC,
            adaptivity=(AdaptivityConfig(response=RESPONSE_R1)
                        if enabled else None)),
            per=baseline)
        for enabled in (False, True)]
        for factor in FACTORS for count in PERTURBED_COUNTS]
    return ExperimentReport(
        experiment_id="fig4",
        title="Q1 on 3 machines, varying perturbed machines (Fig. 4)",
        columns=["magnitude", "perturbed machines",
                 "adaptivity disabled", "adaptivity enabled"],
        rows=run_table(rows, jobs),
        notes=("Expected shape: enabled degrades gracefully and similarly "
               "across magnitudes while at least one machine is "
               "unperturbed; the relative degradation improves on the "
               "static system by up to an order of magnitude."))
