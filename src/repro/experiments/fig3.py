"""Figures 3(a) and 3(b): the join under sleep perturbations, and Q1
with a doubled dataset.

* Fig. 3(a): Q2 with a sleep of 10/50/100 ms before each join tuple on
  one machine; retrospective adaptations (A1+R1).  Retrospective bars
  stay roughly flat as the perturbation grows.
* Fig. 3(b): Q1 with 6000 instead of 3000 tuples, prospective
  adaptations, WS 10x/20x/30x costlier.  With more data the adaptation
  happens relatively earlier, so prospective results approach the
  retrospective ones.  Its comparator column reruns Fig. 2(a)'s
  3000-tuple prospective points.

Both tables declare each point as a :class:`Stat` of one
:func:`query_cell` over its baseline cell, for :func:`run_table`.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.experiments.fig2 import ws_cell
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    query_cell,
    run_table,
)
from repro.workloads.proteins import DemoGridSpec
from repro.workloads.scenarios import perturb_join_sleep

SLEEP_MS = (10.0, 50.0, 100.0)
FACTORS = (10.0, 20.0, 30.0)

#: Fig. 3(b)'s double-size dataset.
FIG3B_SPEC = dataclasses.replace(DemoGridSpec(), sequences_cardinality=6000)


def run_fig3a(jobs: int = 1) -> ExperimentReport:
    """Fig. 3(a): Q2, retrospective adaptations, growing sleeps."""
    baseline = query_cell("Q2:baseline", "Q2")
    rows = [[f"{sleep_ms:.0f}msec"] + [
        Stat(query_cell(
            f"Q2:{sleep_ms:g}ms:{'adaptive' if enabled else 'static'}",
            "Q2",
            perturb=functools.partial(perturb_join_sleep, sleep_ms=sleep_ms),
            adaptivity=(AdaptivityConfig(response=RESPONSE_R1)
                        if enabled else None)),
            per=baseline)
        for enabled in (False, True)]
        for sleep_ms in SLEEP_MS]
    return ExperimentReport(
        experiment_id="fig3a",
        title="Q2, retrospective adaptations (Fig. 3a)",
        columns=["sleep", "adaptivity disabled", "adaptivity enabled"],
        rows=run_table(rows, jobs),
        notes=("Expected shape: the enabled bars remain similar as the "
               "sleep grows (retrospective adaptations are insensitive "
               "to perturbation size)."))


def run_fig3b(jobs: int = 1) -> ExperimentReport:
    """Fig. 3(b): Q1 at double data size, prospective adaptations."""
    doubled = query_cell("Q1x2:baseline", spec=FIG3B_SPEC)
    single = query_cell("Q1:baseline")
    rows = [[f"{factor:.0f} times",
             Stat(ws_cell(factor, False, "Q1x2", spec=FIG3B_SPEC),
                  per=doubled),
             Stat(ws_cell(factor, True, "Q1x2", spec=FIG3B_SPEC),
                  per=doubled),
             Stat(ws_cell(factor, True), per=single)]
            for factor in FACTORS]
    return ExperimentReport(
        experiment_id="fig3b",
        title="Q1 with double data size, prospective (Fig. 3b)",
        columns=["perturbation", "adaptivity disabled",
                 "adaptivity enabled", "enabled @3000 tuples (fig2a)"],
        rows=run_table(rows, jobs),
        notes=("Expected shape: with 6000 tuples the prospective results "
               "improve on the 3000-tuple ones and approach the "
               "retrospective behaviour."))
