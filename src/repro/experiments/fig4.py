"""Figure 4: varying the number of perturbed machines.

Q1 runs on three WS machines; 0, 1, 2 or all 3 of them are perturbed
(WS 10x/20x/30x costlier), with retrospective adaptations.  With at
least one unperturbed machine the adaptive system degrades very
gracefully and almost independently of the perturbation magnitude; the
static system degrades by up to an order of magnitude.

The 24-run sweep is declared as :class:`SweepCell` data (a baseline
cell plus one cell per (magnitude, perturbed count, adaptivity) point)
for the parallel sweep runner.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    baseline_cell,
    stats_cell,
)
from repro.workloads.proteins import DemoGridSpec
from repro.workloads.scenarios import perturb_ws_cost

FACTORS = (10.0, 20.0, 30.0)
PERTURBED_COUNTS = (0, 1, 2, 3)

#: The three-WS-machine deployment of Fig. 4.
FIG4_SPEC = dataclasses.replace(DemoGridSpec(), compute_machines=3)


def cells() -> list[SweepCell]:
    sweep = [SweepCell("Q1x3:baseline", baseline_cell,
                       {"query_key": "Q1", "spec": FIG4_SPEC})]
    for factor in FACTORS:
        for count in PERTURBED_COUNTS:
            perturb = functools.partial(perturb_ws_cost, factor=factor,
                                        machines=count)
            for enabled in (False, True):
                sweep.append(SweepCell(
                    f"Q1x3:{factor:g}x:{count}pert:"
                    f"{'adaptive' if enabled else 'static'}",
                    stats_cell,
                    {"query_key": "Q1", "perturb": perturb, "spec": FIG4_SPEC,
                     "adaptivity": (AdaptivityConfig(response=RESPONSE_R1)
                                    if enabled else None)}))
    return sweep


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Fig. 4(a)-(c) as one table."""
    values = SweepRunner(jobs).run(cells())
    baseline_ms, points = values[0], iter(values[1:])
    rows = []
    for factor in FACTORS:
        for count in PERTURBED_COUNTS:
            disabled = next(points).response_time_ms / baseline_ms
            enabled = next(points).response_time_ms / baseline_ms
            rows.append([f"{factor:.0f} times", count, disabled, enabled])
    return ExperimentReport(
        experiment_id="fig4",
        title="Q1 on 3 machines, varying perturbed machines (Fig. 4)",
        columns=["magnitude", "perturbed machines",
                 "adaptivity disabled", "adaptivity enabled"],
        rows=rows,
        notes=("Expected shape: enabled degrades gracefully and similarly "
               "across magnitudes while at least one machine is "
               "unperturbed; the relative degradation improves on the "
               "static system by up to an order of magnitude."))
