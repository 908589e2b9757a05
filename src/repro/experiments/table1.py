"""Table 1: performance of queries in normalised units.

Three rows — Q1 with prospective response (R2), Q1 with retrospective
response (R1), Q2 with retrospective response — each under four
configurations: {no adaptivity, adaptivity} x {no imbalance,
imbalance}.  The Q1 imbalance makes one WS call 10x costlier; the Q2
imbalance inserts a 10 ms sleep before each join tuple on one machine.
All values are normalised to the no-ad/no-imb run of the same query.

The table is declared as :class:`SweepCell` data — one baseline cell
per query plus three measured cells per table row — for the parallel
sweep runner.
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
from repro.workloads.scenarios import perturb_join_sleep, perturb_ws_cost

#: The paper's reported values, for side-by-side comparison.
PAPER_VALUES = {
    ("Q1", RESPONSE_R2): (1.0, 1.059, 3.53, 1.45),
    ("Q1", RESPONSE_R1): (1.0, 1.15, 3.53, 1.57),
    ("Q2", RESPONSE_R1): (1.0, 1.11, 1.71, 1.31),
}

#: The (query, response policy) combinations of the table's rows.
CONFIGURATIONS = (("Q1", RESPONSE_R2), ("Q1", RESPONSE_R1),
                  ("Q2", RESPONSE_R1))


def _perturb_for(query_key: str):
    if query_key == "Q1":
        return functools.partial(perturb_ws_cost, factor=10.0)
    return functools.partial(perturb_join_sleep, sleep_ms=10.0)


def cells() -> list[SweepCell]:
    sweep = [
        SweepCell("Q1:baseline", baseline_cell, {"query_key": "Q1"}),
        SweepCell("Q2:baseline", baseline_cell, {"query_key": "Q2"}),
    ]
    for query_key, response in CONFIGURATIONS:
        for adaptive, imbalance in ((True, False), (False, True),
                                    (True, True)):
            sweep.append(SweepCell(
                f"{query_key}:{response}:"
                f"{'ad' if adaptive else 'no-ad'}/"
                f"{'imb' if imbalance else 'no-imb'}",
                stats_cell,
                {"query_key": query_key,
                 "adaptivity": (AdaptivityConfig(response=response)
                                if adaptive else None),
                 "perturb": _perturb_for(query_key) if imbalance else None}))
    return sweep


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Table 1."""
    values = SweepRunner(jobs).run(cells())
    baselines = {"Q1": values[0], "Q2": values[1]}
    points = iter(values[2:])
    rows = []
    for query_key, response in CONFIGURATIONS:
        baseline_ms = baselines[query_key]
        ad_no_imb, no_ad_imb, ad_imb = (
            next(points).response_time_ms / baseline_ms for _ in range(3))
        paper = PAPER_VALUES[(query_key, response)]
        rows.append([f"{query_key} - {response}",
                     1.0, ad_no_imb, no_ad_imb, ad_imb,
                     f"{paper[1]:.2f}/{paper[2]:.2f}/{paper[3]:.2f}"])
    return ExperimentReport(
        experiment_id="table1",
        title="Performance of queries in normalised units (Table 1)",
        columns=["Query-Response", "no ad/no imb", "ad/no imb",
                 "no ad/imb", "ad/imb", "paper (ad-noimb/noad-imb/ad-imb)"],
        rows=rows,
        notes=("Q1 imbalance: one WS call 10x costlier.  "
               "Q2 imbalance: sleep(10ms) per join tuple on one machine."))
