"""Table 1: performance of queries in normalised units.

Three rows — Q1 with prospective response (R2), Q1 with retrospective
response (R1), Q2 with retrospective response — each under four
configurations: {no adaptivity, adaptivity} x {no imbalance,
imbalance}.  The Q1 imbalance makes one WS call 10x costlier; the Q2
imbalance inserts a 10 ms sleep before each join tuple on one machine.
All values are normalised to the no-ad/no-imb run of the same query.

Each row declares its runs as :class:`Stat` entries, one
:func:`query_cell` per configuration normalised to the query's
baseline cell; :func:`run_table` runs every distinct cell once.
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


def run(jobs: int = 1) -> ExperimentReport:
    """Reproduce Table 1."""
    rows = []
    for query_key, response in CONFIGURATIONS:
        baseline = query_cell(f"{query_key}:baseline", query_key)
        measured = [
            Stat(query_cell(
                f"{query_key}:{response}:"
                f"{'ad' if adaptive else 'no-ad'}/"
                f"{'imb' if imbalance else 'no-imb'}",
                query_key,
                adaptivity=(AdaptivityConfig(response=response)
                            if adaptive else None),
                perturb=_perturb_for(query_key) if imbalance else None),
                per=baseline)
            for adaptive, imbalance in ((True, False), (False, True),
                                        (True, True))]
        paper = PAPER_VALUES[(query_key, response)]
        rows.append([f"{query_key} - {response}", 1.0, *measured,
                     f"{paper[1]:.2f}/{paper[2]:.2f}/{paper[3]:.2f}"])
    return ExperimentReport(
        experiment_id="table1",
        title="Performance of queries in normalised units (Table 1)",
        columns=["Query-Response", "no ad/no imb", "ad/no imb",
                 "no ad/imb", "ad/imb", "paper (ad-noimb/noad-imb/ad-imb)"],
        rows=run_table(rows, jobs),
        notes=("Q1 imbalance: one WS call 10x costlier.  "
               "Q2 imbalance: sleep(10ms) per join tuple on one machine."))
