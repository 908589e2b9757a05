"""Figures 2(a) and 2(b): Q1 under growing perturbations.

* Fig. 2(a): prospective adaptations (A1+R2) with the perturbed WS
  10x/20x/30x costlier, adaptivity disabled vs enabled.
* Fig. 2(b): the policy matrix {A1+R2, A1+R1, A2+R2} over the same
  perturbations, showing that (i) ignoring communication cost (A1)
  yields better repartitioning when pipelining overlaps communication,
  and (ii) retrospective adaptations scale better with perturbation
  size.

Both sweeps declare their runs as :class:`SweepCell` data — one
baseline cell plus one cell per (perturbation, policy) point — so the
runner can execute them serially or over a process pool with identical
output.
"""

from __future__ import annotations

import functools

from repro.config import (
    ASSESSMENT_A1,
    ASSESSMENT_A2,
    AdaptivityConfig,
    RESPONSE_R1,
    RESPONSE_R2,
)
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    baseline_cell,
    stats_cell,
)
from repro.workloads.scenarios import perturb_ws_cost

PERTURBATION_FACTORS = (10.0, 20.0, 30.0)

#: Paper series (read off Fig. 2a): disabled / enabled.
PAPER_FIG2A = {10.0: (3.53, 1.45), 20.0: (6.66, 2.48), 30.0: (9.76, 3.79)}

#: Fig. 2(a)'s adaptive runs (its static runs pass no config).
PROSPECTIVE = AdaptivityConfig(response=RESPONSE_R2)

#: Fig. 2(b)'s policy matrix.
POLICIES = (
    ("A1-R2", ASSESSMENT_A1, RESPONSE_R2),
    ("A1-R1", ASSESSMENT_A1, RESPONSE_R1),
    ("A2-R2", ASSESSMENT_A2, RESPONSE_R2),
)


def fig2a_cells() -> list[SweepCell]:
    cells = [SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"})]
    for factor in PERTURBATION_FACTORS:
        perturb = functools.partial(perturb_ws_cost, factor=factor)
        for enabled in (False, True):
            cells.append(SweepCell(
                f"Q1:{factor:g}x:{'adaptive' if enabled else 'static'}",
                stats_cell, {"query_key": "Q1", "perturb": perturb,
                           "adaptivity": PROSPECTIVE if enabled else None}))
    return cells


def fig2b_cells() -> list[SweepCell]:
    cells = [SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"})]
    for factor in PERTURBATION_FACTORS:
        perturb = functools.partial(perturb_ws_cost, factor=factor)
        for name, assessment, response in POLICIES:
            cells.append(SweepCell(
                f"Q1:{factor:g}x:{name}", stats_cell,
                {"query_key": "Q1", "perturb": perturb,
                 "adaptivity": AdaptivityConfig(assessment=assessment,
                                                response=response)}))
    return cells


def run_fig2a(jobs: int = 1) -> ExperimentReport:
    """Fig. 2(a): Q1, prospective adaptations, adaptivity off vs on."""
    values = SweepRunner(jobs).run(fig2a_cells())
    baseline_ms, points = values[0], iter(values[1:])
    rows = []
    for factor in PERTURBATION_FACTORS:
        disabled = next(points).response_time_ms / baseline_ms
        enabled = next(points).response_time_ms / baseline_ms
        paper_disabled, paper_enabled = PAPER_FIG2A[factor]
        rows.append([f"{factor:.0f} times", disabled, enabled,
                     paper_disabled, paper_enabled])
    return ExperimentReport(
        experiment_id="fig2a",
        title="Q1, prospective adaptations (Fig. 2a)",
        columns=["perturbation", "adaptivity disabled", "adaptivity enabled",
                 "paper disabled", "paper enabled"],
        rows=rows)


def run_fig2b(jobs: int = 1) -> ExperimentReport:
    """Fig. 2(b): Q1 under the three adaptivity policy combinations."""
    values = SweepRunner(jobs).run(fig2b_cells())
    baseline_ms, points = values[0], iter(values[1:])
    rows = []
    for factor in PERTURBATION_FACTORS:
        policy_values = [next(points).response_time_ms / baseline_ms
                         for _policy in POLICIES]
        rows.append([f"{factor:.0f} times"] + policy_values)
    return ExperimentReport(
        experiment_id="fig2b",
        title="Q1 under different adaptivity policies (Fig. 2b)",
        columns=["perturbation"] + [name for name, _a, _r in POLICIES],
        rows=rows,
        notes=("Expected shape: A1-R2 <= A2-R2 (pipelining hides "
               "communication), and A1-R1 roughly flat across "
               "perturbation sizes."))
