"""Property tests: the scheduler is invisible at concurrency one.

Acceptance property of the multi-query subsystem: for a single query
submitted through a :class:`~repro.sched.QueryScheduler` configured
with ``max_concurrent=1``, the run must be indistinguishable from the
pre-scheduler ``DemoGrid.run`` path — identical result rows,
identical adaptation decisions (in fact the identical full adaptivity
timeline, timestamps included), and an identical number of scheduled
simulator events — across every assessment x response policy
combination.  The scheduler may add *trace* events (category
``scheduler``) but zero *simulator* events.

The grid seed honours ``REPRO_TEST_SEED`` so CI exercises the same
properties under more than one simulated world.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24, seed=SEED)

slow_settings = settings(max_examples=8, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

policies = st.builds(
    AdaptivityConfig,
    assessment=st.sampled_from(["A1", "A2"]),
    response=st.sampled_from(["R1", "R2"]),
    decision_latency_ms=st.sampled_from([100.0, 300.0]),
)

scheduler_configs = st.builds(
    SchedulerConfig,
    max_concurrent=st.just(1),
    max_queued=st.sampled_from([0, 4]),
)


def non_scheduler_timeline(grid):
    return [(event.timestamp, event.category, event.source,
             event.description, event.data)
            for event in grid.context.tracer.events
            if event.category != "scheduler"]


def run_direct(query_text, adaptivity, perturb):
    grid = DemoGrid(SPEC)
    perturb(grid)
    result = grid.run(query_text, adaptivity)
    return grid, result


def run_scheduled(query_text, adaptivity, perturb, config):
    grid = DemoGrid(SPEC)
    perturb(grid)
    scheduler = grid.scheduler(config)
    session = scheduler.submit(query_text, adaptivity=adaptivity)
    results = scheduler.drain()
    assert session.queue_wait_ms == 0.0
    return grid, results[0]


@given(config=policies, sched=scheduler_configs,
       factor=st.sampled_from([5.0, 10.0, 25.0]))
@slow_settings
def test_q1_single_query_identical_through_scheduler(config, sched,
                                                     factor):
    def perturb(grid):
        perturb_ws_cost(grid, factor)
    direct_grid, direct = run_direct(Q1, config, perturb)
    sched_grid, scheduled = run_scheduled(Q1, config, perturb, sched)
    assert scheduled.values() == direct.values()
    assert scheduled.response_time_ms == direct.response_time_ms
    assert (scheduled.stats.adaptations_accepted
            == direct.stats.adaptations_accepted)
    assert (non_scheduler_timeline(sched_grid)
            == non_scheduler_timeline(direct_grid))
    assert (sched_grid.context.env.events_scheduled
            == direct_grid.context.env.events_scheduled)


@given(config=policies, sleep_ms=st.sampled_from([6.0, 30.0]))
@slow_settings
def test_q2_single_query_identical_through_scheduler(config, sleep_ms):
    def perturb(grid):
        perturb_join_sleep(grid, sleep_ms)
    direct_grid, direct = run_direct(Q2, config, perturb)
    sched_grid, scheduled = run_scheduled(Q2, config, perturb,
                                          SchedulerConfig(max_concurrent=1))
    assert scheduled.values() == direct.values()
    assert (non_scheduler_timeline(sched_grid)
            == non_scheduler_timeline(direct_grid))
    assert (sched_grid.context.env.events_scheduled
            == direct_grid.context.env.events_scheduled)


@given(config=policies)
@slow_settings
def test_unperturbed_run_identical_through_scheduler(config):
    direct_grid, direct = run_direct(Q1, config, lambda _g: None)
    sched_grid, scheduled = run_scheduled(
        Q1, config, lambda _g: None, SchedulerConfig(max_concurrent=1))
    assert scheduled.values() == direct.values()
    assert (sched_grid.context.env.events_scheduled
            == direct_grid.context.env.events_scheduled)
