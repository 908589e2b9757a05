"""Property tests: the fault-tolerance layer's determinism contract.

Three promises from the design:

* **Zero cost when off.**  With no crashes configured the event
  timeline is bit-identical to the seed behaviour: an empty crash
  schedule, and an always-on (default) circuit breaker, add no events
  and perturb no draws.
* **Reproducible when on.**  A seeded crash scenario — including the
  scheduler's retry, blacklist and breaker reactions — replays
  bit-for-bit under the same seed.
* **Total accounting.**  Every query admitted while machines crash
  reaches exactly one terminal outcome: a result or a typed
  :class:`~repro.dqp.gdqs.QueryFailed`, never a hang and never an
  unhandled exception.
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
from repro.dqp.gdqs import QueryFailed, QueryResult
from repro.sched import TERMINAL_STATES
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SPEC = DemoGridSpec(sequences_cardinality=120,
                    interactions_cardinality=180,
                    sequence_length=20, compute_machines=3,
                    seed=int(os.environ.get("REPRO_TEST_SEED", "0")))

FT0 = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                           failure_timeout_ms=700.0, max_recoveries=0)

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                    backoff_cap_ms=1000.0)

slow_settings = settings(max_examples=6, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: An empty crash schedule must be indistinguishable from no chaos.
EMPTY_CRASHES = ChaosConfig.lossy(crashes=())


def timeline_of(grid):
    return [(event.timestamp, event.category, event.source,
             event.description, event.data)
            for event in grid.context.tracer.events]


def run_query(chaos, seed):
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed), chaos=chaos)
    grid.scheduler(SchedulerConfig())
    result = grid.run(Q1, AdaptivityConfig())
    return grid, result


def run_crashy_workload(seed):
    chaos = ChaosConfig.lossy(crashes=(
        MachineCrash("compute-2", at_ms=900.0),))
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed),
                    fault_tolerance=FT0, chaos=chaos)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=4,
                                               retry=RETRY))
    for query in (Q1, Q2, Q1, Q2):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, scheduler, outcomes


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_empty_crash_schedule_is_bit_identical_to_no_chaos(seed):
    none_grid, none_result = run_query(None, seed)
    empty_grid, empty_result = run_query(EMPTY_CRASHES, seed)
    assert empty_grid.chaos is None
    assert (none_grid.context.env.events_scheduled
            == empty_grid.context.env.events_scheduled)
    assert timeline_of(none_grid) == timeline_of(empty_grid)
    assert sorted(none_result.values()) == sorted(empty_result.values())


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_crash_scenario_replays_bit_for_bit(seed):
    first_grid, first_sched, first = run_crashy_workload(seed)
    second_grid, second_sched, second = run_crashy_workload(seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert timeline_of(first_grid) == timeline_of(second_grid)
    assert len(first) == len(second)
    for left, right in zip(first, second):
        assert type(left) is type(right)
        if isinstance(left, QueryFailed):
            assert left == right
        else:
            assert sorted(left.values()) == sorted(right.values())
    first_stats = first_sched.statistics()
    second_stats = second_sched.statistics()
    assert first_stats.retried == second_stats.retried
    assert first_stats.failed == second_stats.failed
    assert first_stats.wasted_work_ms == second_stats.wasted_work_ms


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_every_admitted_query_reaches_a_terminal_outcome(seed):
    _grid, scheduler, outcomes = run_crashy_workload(seed)
    assert len(outcomes) == len(scheduler.sessions) == 4
    for outcome in outcomes:
        assert isinstance(outcome, (QueryResult, QueryFailed))
    assert all(session.state in TERMINAL_STATES
               for session in scheduler.sessions)
    stats = scheduler.statistics()
    assert stats.completed + stats.failed == stats.admitted
    assert 0.0 <= stats.availability <= 1.0
