"""Figures 2(a) and 2(b): Q1 under growing perturbations.

* Fig. 2(a): prospective adaptations (A1+R2) with the perturbed WS
  10x/20x/30x costlier, adaptivity disabled vs enabled.
* Fig. 2(b): the policy matrix {A1+R2, A1+R1, A2+R2} over the same
  perturbations, showing that (i) ignoring communication cost (A1)
  yields better repartitioning when pipelining overlaps communication,
  and (ii) retrospective adaptations scale better with perturbation
  size.

Both tables declare each point as a :class:`Stat` of one
:func:`query_cell`, normalised to the unperturbed static cell;
:func:`run_table` runs them serially or over a process pool with
identical output.
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
    Stat,
    SweepCell,
    query_cell,
    run_table,
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


def ws_cell(factor: float, adaptive: bool, prefix: str = "Q1",
            **run) -> SweepCell:
    """Q1 with one WS ``factor`` times costlier, static or prospective."""
    return query_cell(
        f"{prefix}:{factor:g}x:{'adaptive' if adaptive else 'static'}",
        perturb=functools.partial(perturb_ws_cost, factor=factor),
        adaptivity=PROSPECTIVE if adaptive else None, **run)


def run_fig2a(jobs: int = 1) -> ExperimentReport:
    """Fig. 2(a): Q1, prospective adaptations, adaptivity off vs on."""
    baseline = query_cell("Q1:baseline")
    rows = [[f"{factor:.0f} times",
             Stat(ws_cell(factor, False), per=baseline),
             Stat(ws_cell(factor, True), per=baseline),
             *PAPER_FIG2A[factor]]
            for factor in PERTURBATION_FACTORS]
    return ExperimentReport(
        experiment_id="fig2a",
        title="Q1, prospective adaptations (Fig. 2a)",
        columns=["perturbation", "adaptivity disabled", "adaptivity enabled",
                 "paper disabled", "paper enabled"],
        rows=run_table(rows, jobs))


def run_fig2b(jobs: int = 1) -> ExperimentReport:
    """Fig. 2(b): Q1 under the three adaptivity policy combinations."""
    baseline = query_cell("Q1:baseline")
    rows = [[f"{factor:.0f} times"] + [
        Stat(query_cell(
            f"Q1:{factor:g}x:{name}",
            perturb=functools.partial(perturb_ws_cost, factor=factor),
            adaptivity=AdaptivityConfig(assessment=assessment,
                                        response=response)),
            per=baseline)
        for name, assessment, response in POLICIES]
        for factor in PERTURBATION_FACTORS]
    return ExperimentReport(
        experiment_id="fig2b",
        title="Q1 under different adaptivity policies (Fig. 2b)",
        columns=["perturbation"] + [name for name, _a, _r in POLICIES],
        rows=run_table(rows, jobs),
        notes=("Expected shape: A1-R2 <= A2-R2 (pipelining hides "
               "communication), and A1-R1 roughly flat across "
               "perturbation sizes."))
