"""What the exchange's tid bookkeeping costs in memory (decision 48).

A producer's attributed and on-wire tids and a consumer's settled tids
are kept as the tid lists of the blocks that entered them, so their
cost grows by one list pointer per block, not by a hash-set entry per
tuple.  The contract is the ``tracemalloc`` peak of ``grid.run``,
divided by the 3,000 rows of the sequence table both queries scan:
with a hash set per ledger static Q1 peaks at 829 bytes per row and
Q2 under A1+R1 at 1,961; with block lists at 316 and 1,267.  The
bounds sit between.
"""

import tracemalloc

import pytest

from repro.config import AdaptivityConfig
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SEQUENCES = 3_000


def traced_peak(grid, query, adaptivity) -> tuple:
    """``grid.run``'s result and the bytes the traced heap grew by at
    its peak inside the run."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = grid.run(query, adaptivity)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def static_q1() -> tuple:
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=SEQUENCES))
    perturb_ws_cost(grid, 10.0)
    return grid, Q1, AdaptivityConfig.disabled()


def adaptive_q2() -> tuple:
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=SEQUENCES,
                                 interactions_cardinality=4_500))
    perturb_join_sleep(grid, 12.0)
    return grid, Q2, AdaptivityConfig(assessment="A1", response="R1")


@pytest.mark.parametrize("build, bound, moves", [
    pytest.param(static_q1, 500, 0, id="q1-static-ws10x"),
    # One R1 move: state copies, log replays, retractions, revisions.
    pytest.param(adaptive_q2, 1_600, 1, id="q2-a1r1-sleep12"),
])
def test_traced_peak_per_sequence_row(build, bound, moves):
    grid, query, adaptivity = build()
    result, peak = traced_peak(grid, query, adaptivity)
    assert result.stats.retrospective_moves == moves
    per_row = peak / SEQUENCES
    assert per_row <= bound, f"{per_row:.0f} bytes per row"
