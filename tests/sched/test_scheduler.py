"""Tests for the multi-query scheduler: admission, dispatch, telemetry."""

import pytest

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.errors import AdmissionRejected
from repro.sched import STATE_COMPLETED, STATE_QUEUED, STATE_RUNNING
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SPEC = DemoGridSpec(sequences_cardinality=120, interactions_cardinality=180,
                    sequence_length=20)
STATIC = AdaptivityConfig.disabled()


def make_scheduler(spec=SPEC, **config):
    grid = DemoGrid(spec)
    return grid, grid.scheduler(SchedulerConfig(**config))


class TestAdmission:
    def test_submission_within_limit_starts_immediately(self):
        grid, scheduler = make_scheduler(max_concurrent=2)
        session = scheduler.submit(Q1, adaptivity=STATIC)
        assert session.state == STATE_RUNNING
        assert scheduler.sessions == [session]
        assert session.queue_wait_ms == 0.0
        assert session.handle is not None

    def test_excess_submissions_queue_then_reject(self):
        grid, scheduler = make_scheduler(max_concurrent=1, max_queued=2)
        first = scheduler.submit(Q1, adaptivity=STATIC)
        second = scheduler.submit(Q2, adaptivity=STATIC)
        third = scheduler.submit(Q1, adaptivity=STATIC)
        assert first.state == STATE_RUNNING
        assert second.state == STATE_QUEUED
        assert third.state == STATE_QUEUED
        with pytest.raises(AdmissionRejected) as excinfo:
            scheduler.submit(Q2, adaptivity=STATIC)
        assert excinfo.value.running == 1
        assert excinfo.value.queued == 2
        assert excinfo.value.max_concurrent == 1
        assert excinfo.value.max_queued == 2
        assert scheduler.rejected == 1
        results = scheduler.drain()
        assert len(results) == 3
        assert all(session.state == STATE_COMPLETED
                   for session in scheduler.sessions)

    def test_zero_queue_rejects_as_soon_as_running_is_full(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=0)
        scheduler.submit(Q1, adaptivity=STATIC)
        with pytest.raises(AdmissionRejected):
            scheduler.submit(Q1, adaptivity=STATIC)

    def test_rejection_schedules_no_simulator_events(self):
        grid, scheduler = make_scheduler(max_concurrent=1, max_queued=0)
        scheduler.submit(Q1, adaptivity=STATIC)
        before = grid.context.env.events_scheduled
        with pytest.raises(AdmissionRejected):
            scheduler.submit(Q2, adaptivity=STATIC)
        assert grid.context.env.events_scheduled == before

    def test_queue_capacity_frees_up_after_completion(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=1)
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q1, adaptivity=STATIC)
        with pytest.raises(AdmissionRejected):
            scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.drain()
        admitted = scheduler.submit(Q1, adaptivity=STATIC)
        assert admitted.state == STATE_RUNNING
        scheduler.drain()
        assert scheduler.statistics().completed == 3


class TestDispatch:
    def test_fifo_order_and_timestamps(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=8)
        sessions = [scheduler.submit(Q1, adaptivity=STATIC)
                    for _ in range(3)]
        scheduler.drain()
        starts = [session.started_at for session in sessions]
        assert starts == sorted(starts)
        # Strictly serial: each successor starts when its predecessor
        # completes, in submission order.
        for earlier, later in zip(sessions, sessions[1:]):
            assert later.started_at == earlier.completed_at

    def test_queued_session_waits_and_still_returns_result(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=4)
        first = scheduler.submit(Q1, adaptivity=STATIC)
        second = scheduler.submit(Q2, adaptivity=STATIC)
        results = scheduler.drain()
        assert second.queue_wait_ms > 0.0
        assert second.queue_wait_ms == pytest.approx(first.execution_ms)
        assert results[0].stats.result_count == 120
        assert results[1].stats.result_count == 180

    def test_drain_returns_results_in_submission_order(self):
        _grid, scheduler = make_scheduler(max_concurrent=4)
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q2, adaptivity=STATIC)
        results = scheduler.drain()
        assert results[0].stats.result_count == 120
        assert results[1].stats.result_count == 180

    def test_concurrent_sessions_share_the_grid(self):
        solo_grid, solo_scheduler = make_scheduler(max_concurrent=1)
        solo_scheduler.submit(Q1, adaptivity=STATIC)
        solo = solo_scheduler.drain()[0]
        _grid, scheduler = make_scheduler(max_concurrent=2)
        first = scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q2, adaptivity=STATIC)
        scheduler.drain()
        # The shared data host serialises the two feeds, so running
        # next to Q2 costs Q1 real simulated time.
        assert first.execution_ms > solo.response_time_ms * 1.3


class TestHandleTimestamps:
    def test_handle_separates_queue_wait_from_execution(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=4)
        scheduler.submit(Q1, adaptivity=STATIC)
        second = scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.drain()
        handle = second.handle
        assert handle.submitted_at == 0.0
        assert handle.started_at > handle.submitted_at
        assert handle.completed_at > handle.started_at
        assert handle.queue_wait_ms == pytest.approx(
            second.queue_wait_ms)
        assert handle.execution_ms == pytest.approx(second.execution_ms)
        assert second.response_ms == pytest.approx(
            handle.queue_wait_ms + handle.execution_ms)

    def test_direct_submission_has_zero_queue_wait(self):
        grid = DemoGrid(SPEC)
        handle = grid.processor.gdqs.submit(Q1, STATIC)
        grid.context.env.run()
        assert handle.queue_wait_ms == 0.0
        assert handle.completed_at is not None
        assert handle.execution_ms == pytest.approx(
            handle.result.response_time_ms)


class TestStatistics:
    def test_lifetime_statistics(self):
        _grid, scheduler = make_scheduler(max_concurrent=1, max_queued=1)
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q2, adaptivity=STATIC)
        with pytest.raises(AdmissionRejected):
            scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.drain()
        stats = scheduler.statistics()
        assert stats.admitted == 2
        assert stats.completed == 2
        assert stats.rejected == 1
        assert stats.peak_queue_depth == 1
        assert len(stats.queue_waits_ms) == 2
        assert len(stats.response_ms) == 2
        for wait, execution, response in zip(
                stats.queue_waits_ms, stats.execution_ms,
                stats.response_ms):
            assert response == pytest.approx(wait + execution)

    def test_machine_utilisation_bounded_and_feed_dominated(self):
        _grid, scheduler = make_scheduler(max_concurrent=2)
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q2, adaptivity=STATIC)
        scheduler.drain()
        utilisation = scheduler.statistics().machine_utilisation
        assert set(utilisation) == {"coordinator", "data-host",
                                    "compute-1", "compute-2"}
        assert all(0.0 <= value <= 1.0 for value in utilisation.values())
        assert utilisation["data-host"] == max(utilisation.values())

    def test_utilisation_baseline_excludes_prior_work(self):
        grid = DemoGrid(SPEC)
        grid.run(Q1, STATIC)
        scheduler = grid.scheduler(SchedulerConfig(max_concurrent=1))
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.drain()
        utilisation = scheduler.statistics().machine_utilisation
        # Only work since the scheduler existed counts, so the busy
        # fraction stays a fraction even on a pre-used grid.
        assert 0.0 < utilisation["data-host"] <= 1.0

    def test_scheduler_timeline_traced(self):
        grid, scheduler = make_scheduler(max_concurrent=1, max_queued=1)
        scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.submit(Q1, adaptivity=STATIC)
        with pytest.raises(AdmissionRejected):
            scheduler.submit(Q1, adaptivity=STATIC)
        scheduler.drain()
        descriptions = [event.description for event in
                        grid.context.tracer.in_category("scheduler")]
        assert descriptions.count("query started") == 2
        assert descriptions.count("query completed") == 2
        assert "query queued" in descriptions
        assert "query rejected" in descriptions


class TestPlacement:
    def test_partial_degree_prefers_least_loaded_machines(self):
        spec = DemoGridSpec(sequences_cardinality=120,
                            interactions_cardinality=180,
                            sequence_length=20,
                            compute_machines=3)
        _grid, scheduler = make_scheduler(spec=spec, max_concurrent=4)
        first = scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        second = scheduler.submit(Q1, adaptivity=STATIC, degree=1)
        first_computes = {name for name in first.machines
                         if name.startswith("compute-")}
        second_computes = {name for name in second.machines
                          if name.startswith("compute-")}
        # The first session occupies two of the three compute machines;
        # the second lands on the one still idle.
        assert len(first_computes) == 2
        assert second_computes == (
            {"compute-1", "compute-2", "compute-3"} - first_computes)
        scheduler.drain()

    def test_placement_is_stable_on_an_idle_grid(self):
        _grid, scheduler = make_scheduler(max_concurrent=4)
        session = scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        assert {"compute-1", "compute-2"} <= set(session.machines)
        scheduler.drain()
