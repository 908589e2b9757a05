"""Fleet scale, counted rather than timed.

A lazy multi-site fleet must cost the same host work per query however
many machines it registers: placement walks a bounded candidate list,
never the pool, so only the placed slice of the fleet is ever built.
The guard counts Python calls with ``sys.setprofile`` — an exact,
noise-free measure of host work — and allows 5 % growth from 50 to
800 machines.  A pick that walks the whole pool builds every machine
and grows the count about 1.7x.
"""

import dataclasses
import sys

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2, perturb_ws_cost

FLEET = DemoGridSpec(sequences_cardinality=30, interactions_cardinality=45,
                     sequence_length=8, seed=7, lazy_machines=True)
QUERIES = 100


def built_machines(grid):
    registry = grid.context.registry
    return sum(1 for name in grid.compute_machines
               if registry.is_materialized(name))


def counted_fleet_run(machines):
    """Q1/Q2 alternating at degree 2 on ``machines`` lazy machines in
    eight sites; returns (Python calls from grid construction to
    drain, scheduler statistics, machines built)."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        grid = DemoGrid(dataclasses.replace(FLEET, compute_machines=machines,
                                            sites=8),
                        metrics_enabled=False)
        scheduler = grid.scheduler(SchedulerConfig(
            max_concurrent=16, max_queued=QUERIES, placement_candidates=8))
        for index in range(QUERIES):
            scheduler.submit((Q1, Q2)[index % 2],
                             adaptivity=AdaptivityConfig.disabled(), degree=2)
        scheduler.drain()
    finally:
        sys.setprofile(None)
    return calls, scheduler.statistics(), built_machines(grid)


def test_host_work_per_query_is_flat_in_fleet_size():
    small_calls, small, small_built = counted_fleet_run(50)
    large_calls, large, large_built = counted_fleet_run(800)
    for stats in (small, large):
        assert stats.admitted == QUERIES
        assert stats.completed + stats.failed == stats.admitted
    assert large_built == small_built
    assert large_calls <= 1.05 * small_calls, (small_calls, large_calls)


def test_adaptivity_converges_on_a_thousand_machine_fleet():
    """One adaptive Q1 (R1, degree 2) on 1,000 lazy machines in 32
    sites with a 10x WS cost on the first placed machine: the loop
    moves work off it, and only the two placed machines are built."""
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=120,
                                 interactions_cardinality=180,
                                 sequence_length=20, compute_machines=1000,
                                 sites=32, lazy_machines=True),
                    metrics_enabled=False)
    perturb_ws_cost(grid, 10.0)
    result = grid.run(Q1, AdaptivityConfig(response="R1",
                                           decision_latency_ms=100.0),
                      degree=2)
    assert len(result.rows) == 120
    assert result.stats.adaptations_accepted == 1
    assert list(result.stats.tuples_per_consumer) == [7, 113]
    assert built_machines(grid) == 2
