"""Property tests: the fleet-scale machinery is invisible at small scale.

The sharded scheduler state (incremental placement index, incremental
breaker set, heartbeat wheel, lazy machines) must not change a single
bit of today's small-grid behaviour:

* **Single implicit site degenerates.**  A grid that never names
  sites gets one flat machine tier whose order equals a full stable
  sort by committed shares (pinned in
  ``tests/sched/test_fleet_index.py``); the scheduler-equivalence
  suite then pins the whole timeline against the direct path.  Here
  we pin the remaining A/B axis end to end: candidate budget vs the
  full order.
* **Reproducible at fleet shape.**  Overlapping fault-tolerant
  queries sharing the heartbeat wheel, and multi-site lazy grids
  driven through the scheduler, replay bit-for-bit under the same
  seed.

The grid seed honours ``REPRO_TEST_SEED`` so CI exercises these
properties under more than one simulated world.
"""

import dataclasses
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.dqp.gdqs import QueryFailed
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SPEC = DemoGridSpec(sequences_cardinality=120,
                    interactions_cardinality=180,
                    sequence_length=20, compute_machines=3,
                    seed=SEED)

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                    backoff_cap_ms=1000.0)

slow_settings = settings(max_examples=6, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0, max_recoveries=2)


def timeline_of(grid):
    return [(event.timestamp, event.category, event.source,
             event.description, event.data)
            for event in grid.context.tracer.events]


def run_overlapping(seed):
    chaos = ChaosConfig.lossy(crashes=(
        MachineCrash("compute-2", at_ms=900.0),))
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed),
                    fault_tolerance=FT, chaos=chaos)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=4,
                                               retry=RETRY))
    for query in (Q1, Q2, Q1, Q2):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, outcomes


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_wheel_overlapping_queries_replay_bit_for_bit(seed):
    # Overlapping queries share the wheel's tick phase; the promise is
    # exact reproducibility plus total terminal accounting.
    first_grid, first = run_overlapping(seed)
    second_grid, second = run_overlapping(seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert timeline_of(first_grid) == timeline_of(second_grid)
    assert len(first) == len(second) == 4
    for left, right in zip(first, second):
        assert type(left) is type(right)
        if isinstance(left, QueryFailed):
            assert left == right
        else:
            assert sorted(left.values()) == sorted(right.values())


def run_budgeted(seed, candidates):
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed))
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=2, placement_candidates=candidates))
    for query in (Q1, Q2, Q1):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, outcomes


@given(seed=st.sampled_from([0, 1]),
       candidates=st.sampled_from([3, 5, 64]))
@slow_settings
def test_covering_candidate_budget_identical_to_full_order(seed,
                                                           candidates):
    # Any budget covering the compute pool emits the same candidate
    # prefix as the unbounded order, so the whole run is bit-identical.
    full_grid, full = run_budgeted(seed, None)
    capped_grid, capped = run_budgeted(seed, candidates)
    assert (full_grid.context.env.events_scheduled
            == capped_grid.context.env.events_scheduled)
    assert timeline_of(full_grid) == timeline_of(capped_grid)
    for left, right in zip(full, capped):
        assert sorted(left.values()) == sorted(right.values())


def run_fleet(seed):
    """A lazy 16-machine / 4-site grid under concurrent load."""
    spec = dataclasses.replace(SPEC, seed=seed, compute_machines=16,
                               sites=4, lazy_machines=True)
    grid = DemoGrid(spec)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=4, placement_candidates=8))
    for query in (Q1, Q2, Q1, Q2, Q1):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, scheduler, outcomes


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_lazy_multisite_fleet_replays_bit_for_bit(seed):
    first_grid, first_sched, first = run_fleet(seed)
    second_grid, second_sched, second = run_fleet(seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert timeline_of(first_grid) == timeline_of(second_grid)
    assert len(first) == len(second) == 5
    for left, right in zip(first, second):
        assert sorted(left.values()) == sorted(right.values())
    materialized = {
        name for name in first_grid.compute_machines
        if first_grid.context.registry.is_materialized(name)}
    # Placement spread across sites but never touched the whole fleet.
    assert materialized
    assert materialized < set(first_grid.compute_machines)
    assert first_sched.statistics().completed == 5
    assert second_sched.statistics().completed == 5
