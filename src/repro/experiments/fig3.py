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

Both sweeps are declared as :class:`SweepCell` data (baseline cells
plus one cell per measured point) for the parallel sweep runner.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.experiments.fig2 import PROSPECTIVE
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    baseline_cell,
    stats_cell,
)
from repro.workloads.proteins import DemoGridSpec
from repro.workloads.scenarios import perturb_join_sleep, perturb_ws_cost

SLEEP_MS = (10.0, 50.0, 100.0)
FACTORS = (10.0, 20.0, 30.0)

#: Fig. 3(b)'s double-size dataset.
FIG3B_SPEC = dataclasses.replace(DemoGridSpec(), sequences_cardinality=6000)


def fig3a_cells() -> list[SweepCell]:
    cells = [SweepCell("Q2:baseline", baseline_cell, {"query_key": "Q2"})]
    for sleep_ms in SLEEP_MS:
        perturb = functools.partial(perturb_join_sleep, sleep_ms=sleep_ms)
        for enabled in (False, True):
            cells.append(SweepCell(
                f"Q2:{sleep_ms:g}ms:{'adaptive' if enabled else 'static'}",
                stats_cell,
                {"query_key": "Q2", "perturb": perturb,
                 "adaptivity": (AdaptivityConfig(response=RESPONSE_R1)
                                if enabled else None)}))
    return cells


def fig3b_cells() -> list[SweepCell]:
    cells = [SweepCell("Q1x2:baseline", baseline_cell,
                       {"query_key": "Q1", "spec": FIG3B_SPEC}),
             SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"})]
    for factor in FACTORS:
        run = {"query_key": "Q1",
               "perturb": functools.partial(perturb_ws_cost, factor=factor)}
        cells.append(SweepCell(f"Q1x2:{factor:g}x:static", stats_cell,
                               dict(run, spec=FIG3B_SPEC)))
        cells.append(SweepCell(f"Q1x2:{factor:g}x:adaptive", stats_cell,
                               dict(run, spec=FIG3B_SPEC,
                                    adaptivity=PROSPECTIVE)))
        cells.append(SweepCell(f"Q1:{factor:g}x:adaptive", stats_cell,
                               dict(run, adaptivity=PROSPECTIVE)))
    return cells


def run_fig3a(jobs: int = 1) -> ExperimentReport:
    """Fig. 3(a): Q2, retrospective adaptations, growing sleeps."""
    values = SweepRunner(jobs).run(fig3a_cells())
    baseline_ms, points = values[0], iter(values[1:])
    rows = []
    for sleep_ms in SLEEP_MS:
        disabled = next(points).response_time_ms / baseline_ms
        enabled = next(points).response_time_ms / baseline_ms
        rows.append([f"{sleep_ms:.0f}msec", disabled, enabled])
    return ExperimentReport(
        experiment_id="fig3a",
        title="Q2, retrospective adaptations (Fig. 3a)",
        columns=["sleep", "adaptivity disabled", "adaptivity enabled"],
        rows=rows,
        notes=("Expected shape: the enabled bars remain similar as the "
               "sleep grows (retrospective adaptations are insensitive "
               "to perturbation size)."))


def run_fig3b(jobs: int = 1) -> ExperimentReport:
    """Fig. 3(b): Q1 at double data size, prospective adaptations."""
    values = SweepRunner(jobs).run(fig3b_cells())
    doubled_ms, single_ms, points = values[0], values[1], iter(values[2:])
    rows = []
    for factor in FACTORS:
        disabled = next(points).response_time_ms / doubled_ms
        enabled = next(points).response_time_ms / doubled_ms
        single_size = next(points).response_time_ms / single_ms
        rows.append([f"{factor:.0f} times", disabled, enabled, single_size])
    return ExperimentReport(
        experiment_id="fig3b",
        title="Q1 with double data size, prospective (Fig. 3b)",
        columns=["perturbation", "adaptivity disabled",
                 "adaptivity enabled", "enabled @3000 tuples (fig2a)"],
        rows=rows,
        notes=("Expected shape: with 6000 tuples the prospective results "
               "improve on the 3000-tuple ones and approach the "
               "retrospective behaviour."))
