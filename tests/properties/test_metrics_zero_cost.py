"""Property tests: metric recording is invisible to the simulation.

The metrics layer promises that every instrument update is a plain
attribute mutation — it may read the clock, but never schedules a DES
event, charges CPU work, or draws randomness.  Two runs of the same
query on the same spec, one with the registry enabled and one with it
disabled, must therefore be bit-identical: same total event count,
same full trace (timestamps, categories, sources, descriptions and
payloads), same result rows.  Only the telemetry output may differ.

Every count is recorded once, by the object that observes it, so no
count depends on the registry: a query's ``QueryStatistics`` is equal
with metrics on and off and *is* the exported per-query record, and
the scheduler's and chaos injector's counts are equal on and off and
are what their gauges export.
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
from repro.sched import WorkloadDriver, WorkloadSpec
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24,
                    seed=int(os.environ.get("REPRO_TEST_SEED", "0")))

slow_settings = settings(max_examples=8, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

policies = st.builds(
    AdaptivityConfig,
    assessment=st.sampled_from(["A1", "A2"]),
    response=st.sampled_from(["R1", "R2"]),
    decision_latency_ms=st.sampled_from([50.0, 300.0]),
)


def run_once(query_text, adaptivity, metrics_enabled, perturb=None):
    grid = DemoGrid(SPEC, metrics_enabled=metrics_enabled)
    if perturb is not None:
        perturb(grid)
    result = grid.run(query_text, adaptivity)
    timeline = [(event.timestamp, event.category, event.source,
                 event.description, event.data)
                for event in grid.context.tracer.events]
    return grid, result, timeline


def assert_one_record(on_grid, on_result, off_result):
    """Equal statistics on and off, exported as the query's record."""
    assert on_result.stats == off_result.stats
    metrics = on_grid.context.metrics
    assert metrics.reports == [(on_result.query_id, on_result.stats)]
    assert metrics.snapshot()[-1] == {
        "type": "query_statistics", "query_id": on_result.query_id,
        **dataclasses.asdict(on_result.stats)}


@given(config=policies, factor=st.sampled_from([5.0, 10.0, 25.0]))
@slow_settings
def test_q1_timeline_bit_identical_with_and_without_metrics(config, factor):
    def perturb(g):
        perturb_ws_cost(g, factor)
    on_grid, on_result, on_timeline = run_once(Q1, config, True, perturb)
    off_grid, off_result, off_timeline = run_once(Q1, config, False, perturb)
    assert (on_grid.context.env.events_scheduled
            == off_grid.context.env.events_scheduled)
    assert on_timeline == off_timeline
    assert sorted(on_result.values()) == sorted(off_result.values())
    assert_one_record(on_grid, on_result, off_result)
    # The enabled run did measure: utilisation gauges exist for every
    # machine, and the detectors counted raw monitoring events.
    metrics = on_grid.context.metrics
    for name in on_grid.compute_machines:
        gauge = metrics.find("gauge", "machine_cpu_utilisation",
                             machine=name)
        assert gauge is not None
        assert 0.0 < gauge.value <= 1.0
    assert on_result.stats.raw_monitoring_events > 0
    # The disabled run recorded nothing at all.
    assert off_grid.context.metrics.snapshot() == []


@given(config=policies, sleep_ms=st.sampled_from([6.0, 30.0]))
@slow_settings
def test_q2_timeline_bit_identical_with_and_without_metrics(config,
                                                            sleep_ms):
    def perturb(g):
        perturb_join_sleep(g, sleep_ms)
    on_grid, on_result, on_timeline = run_once(Q2, config, True, perturb)
    off_grid, off_result, off_timeline = run_once(Q2, config, False, perturb)
    assert (on_grid.context.env.events_scheduled
            == off_grid.context.env.events_scheduled)
    assert on_timeline == off_timeline
    assert sorted(on_result.values()) == sorted(off_result.values())
    assert_one_record(on_grid, on_result, off_result)


@given(response=st.sampled_from(["R1", "R2"]))
@slow_settings
def test_adaptive_run_produces_a_report(response):
    config = AdaptivityConfig(response=response)
    grid, result, _timeline = run_once(
        Q1, config, True, perturb=lambda g: perturb_ws_cost(g, 10.0))
    metrics = grid.context.metrics
    ((query_id, stats),) = metrics.reports
    assert query_id == result.query_id
    assert stats.response_time_ms == result.response_time_ms
    assert stats.raw_monitoring_events > 0
    assert stats.cost_notifications > 0
    assert sum(stats.tuples_per_consumer) == len(result.rows)
    latency = metrics.find("histogram", "detection_latency_ms",
                           query=query_id, policy=stats.policy)
    assert latency.count >= stats.proposals_sent


def run_workload(metrics_enabled):
    """Paced arrivals over a lossy grid that loses a machine, with a
    bounded queue, retries and a deadline, so every count moves."""
    chaos = ChaosConfig.lossy(
        drop_probability=0.05, duplicate_probability=0.05,
        delay_probability=0.1, delay_ms=20.0, ws_failure_probability=0.05,
        crashes=(MachineCrash("compute-2", at_ms=4000.0),))
    grid = DemoGrid(SPEC, metrics_enabled=metrics_enabled, chaos=chaos,
                    fault_tolerance=FaultToleranceConfig(
                        enabled=True, heartbeat_interval_ms=200.0,
                        failure_timeout_ms=700.0, max_recoveries=0))
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=2, max_queued=1, query_timeout_ms=20000.0,
        retry=RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                          backoff_cap_ms=1000.0)))
    WorkloadDriver(scheduler, WorkloadSpec(
        arrival_rate_qps=1.0, duration_ms=10000.0, catalog=(Q1, Q2),
        adaptivity=AdaptivityConfig())).run()
    return grid, scheduler.statistics(), grid.chaos.counters()


def test_scheduler_and_chaos_counts_are_the_exported_gauges():
    grid, stats, chaos = run_workload(metrics_enabled=True)
    _off_grid, off_stats, off_chaos = run_workload(metrics_enabled=False)
    assert stats == off_stats
    assert chaos == off_chaos
    metrics = grid.context.metrics
    for name in ("admitted", "rejected", "completed", "failed",
                 "retried", "timed_out"):
        gauge = metrics.find("gauge", f"sched_{name}")
        assert gauge.value == getattr(stats, name), name
    for name in ("messages_dropped", "messages_duplicated",
                 "messages_delayed", "ws_failures_injected",
                 "machines_frozen", "machines_crashed"):
        assert metrics.find("gauge", f"chaos_{name}").value == chaos[name]
    for kind in ("send", "call", "ws"):
        gauge = metrics.find("gauge", "chaos_retries", kind=kind)
        assert gauge.value == chaos[f"{kind}_retries"]
    # The run exercised the counts it compares.
    assert stats.rejected and stats.retried and chaos["machines_crashed"]
    assert chaos["messages_dropped"] and chaos["ws_failures_injected"]
