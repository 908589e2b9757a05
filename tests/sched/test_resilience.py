"""Scheduler resilience: retries, deadlines, breakers, clean drains.

A permanently crashed machine turns its in-flight sessions into typed
failures; the scheduler's job is to keep every admitted session
accountable — retry it on a placement that blacklists the machine
that sank it, abort it at the per-query deadline, or settle it as a
typed failure — and to drain to one terminal outcome per session, no
matter what the grid did underneath.
"""

import pytest

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.dqp.gdqs import (
    CAUSE_BUDGET,
    CAUSE_DEADLINE,
    CAUSE_UNPLANNABLE,
    QueryFailed,
    QueryResult,
)
from repro.errors import ConfigurationError
from repro.sched import STATE_COMPLETED, STATE_FAILED, TERMINAL_STATES
from repro.sched.health import MachineHealth
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

STATIC = AdaptivityConfig.disabled()

SPEC3 = DemoGridSpec(sequences_cardinality=120,
                     interactions_cardinality=180,
                     sequence_length=20, compute_machines=3)

#: Fast detection, zero recovery budget: a machine loss escalates to
#: the scheduler instead of being absorbed by the DQP layer.
FT0 = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                           failure_timeout_ms=700.0, max_recoveries=0)

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                    backoff_cap_ms=1000.0)


def crash(machine, at_ms):
    return ChaosConfig.lossy(crashes=(MachineCrash(machine, at_ms=at_ms),))


def make_grid(chaos, spec=SPEC3, **config):
    grid = DemoGrid(spec, fault_tolerance=FT0, chaos=chaos)
    return grid, grid.scheduler(SchedulerConfig(**config))


class FakeEnv:
    def __init__(self):
        self.now = 0.0


class TestMachineHealth:
    def make(self, threshold=3, window_ms=1000.0, cooldown_ms=5000.0):
        self.env = FakeEnv()
        return MachineHealth(self.env, threshold=threshold,
                             window_ms=window_ms, cooldown_ms=cooldown_ms)

    def test_opens_after_threshold_failures_in_window(self):
        health = self.make()
        health.record_failure("m")
        health.record_failure("m")
        assert not health.is_open("m")
        health.record_failure("m")
        assert health.is_open("m")
        assert health.state("m") == "open"
        assert health.breakers_opened == 1
        assert health.unhealthy_names() == {"m"}

    def test_window_expiry_forgets_old_failures(self):
        health = self.make()
        health.record_failure("m")
        self.env.now = 1500.0  # first failure ages out of the window
        health.record_failure("m")
        health.record_failure("m")
        assert not health.is_open("m")

    def test_cooldown_half_opens_and_probe_success_closes(self):
        health = self.make()
        for _ in range(3):
            health.record_failure("m")
        self.env.now = 5000.0
        assert health.state("m") == "half-open"
        assert not health.is_open("m")  # one probe is admitted
        health.note_placement(("m",))
        assert health.is_open("m")  # ...but only one
        health.record_success("m")
        assert health.state("m") == "closed"
        assert not health.is_open("m")
        assert health.breakers_closed == 1

    def test_probe_failure_reopens_for_another_cooldown(self):
        health = self.make()
        for _ in range(3):
            health.record_failure("m")
        self.env.now = 5000.0
        health.note_placement(("m",))
        health.record_failure("m")
        assert health.state("m") == "open"
        self.env.now = 9999.0  # cooldown restarted at the probe failure
        assert health.state("m") == "open"
        self.env.now = 10000.0
        assert health.state("m") == "half-open"

    def test_success_on_closed_machine_clears_nothing(self):
        health = self.make()
        health.record_failure("m")
        health.record_success("m")
        health.record_failure("m")
        health.record_failure("m")
        # The window expires failures; intervening successes don't.
        assert health.is_open("m")


class TestRetryWithBlacklist:
    def test_crash_is_retried_away_from_the_failed_machine(self):
        grid, scheduler = make_grid(crash("compute-2", at_ms=600.0),
                                    retry=RETRY)
        session = scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        assert set(session.machines) >= {"compute-1", "compute-2"}
        (outcome,) = scheduler.drain()
        assert isinstance(outcome, QueryResult)
        assert outcome.stats.result_count == 120
        assert session.state == STATE_COMPLETED
        assert session.attempts == 2
        # The machine that sank attempt one is blacklisted on retry.
        assert session.blacklist == "compute-2"
        assert "compute-2" not in session.machines
        stats = scheduler.statistics()
        assert stats.retried == 1
        assert stats.failed == 0
        assert stats.availability == 1.0
        assert stats.wasted_work_ms > 0.0

    def test_retry_trace_and_breaker_record_the_failure(self):
        grid, scheduler = make_grid(crash("compute-2", at_ms=600.0),
                                    retry=RETRY)
        scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        scheduler.drain()
        descriptions = [event.description for event in
                        grid.context.tracer.in_category("scheduler")]
        assert "query retrying" in descriptions
        assert scheduler.health._failures.get("compute-2")

    def test_without_retry_the_failure_is_terminal(self):
        _grid, scheduler = make_grid(crash("compute-2", at_ms=600.0))
        session = scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        (outcome,) = scheduler.drain()
        assert isinstance(outcome, QueryFailed)
        assert outcome.cause == CAUSE_BUDGET
        assert session.state == STATE_FAILED
        stats = scheduler.statistics()
        assert stats.failed == 1
        assert stats.retried == 0
        assert stats.availability == 0.0

    def test_exhausted_pool_fails_with_unplannable(self):
        spec = DemoGridSpec(sequences_cardinality=120,
                            interactions_cardinality=180,
                            sequence_length=20, compute_machines=2)
        chaos = ChaosConfig.lossy(crashes=(
            MachineCrash("compute-1", at_ms=300.0),
            MachineCrash("compute-2", at_ms=400.0)))
        _grid, scheduler = make_grid(chaos, spec=spec, retry=RETRY)
        scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        (outcome,) = scheduler.drain()
        # Both machines are gone by the retry: placement is infeasible
        # and the session settles as a typed failure, not an exception.
        assert isinstance(outcome, QueryFailed)
        assert outcome.cause == CAUSE_UNPLANNABLE


class TestDeadlines:
    def test_deadline_aborts_with_typed_timeout(self):
        _grid, scheduler = make_grid(None, query_timeout_ms=500.0)
        session = scheduler.submit(Q1, adaptivity=STATIC)
        (outcome,) = scheduler.drain()
        assert isinstance(outcome, QueryFailed)
        assert outcome.cause == CAUSE_DEADLINE
        assert session.execution_ms == pytest.approx(500.0)
        stats = scheduler.statistics()
        assert stats.timed_out == 1
        assert stats.failed == 1

    def test_deadline_is_terminal_even_with_retry_configured(self):
        _grid, scheduler = make_grid(None, query_timeout_ms=500.0,
                                     retry=RETRY)
        session = scheduler.submit(Q1, adaptivity=STATIC)
        (outcome,) = scheduler.drain()
        assert outcome.cause == CAUSE_DEADLINE
        assert session.attempts == 1  # never retried
        assert scheduler.statistics().retried == 0

    def test_generous_deadline_never_fires(self):
        _grid, scheduler = make_grid(None, query_timeout_ms=60000.0)
        scheduler.submit(Q1, adaptivity=STATIC)
        (outcome,) = scheduler.drain()
        assert isinstance(outcome, QueryResult)
        assert scheduler.statistics().timed_out == 0


class TestDrainUnderFailures:
    def test_drain_returns_one_outcome_per_admitted_session(self):
        grid, scheduler = make_grid(crash("compute-2", at_ms=900.0),
                                    max_concurrent=4, retry=RETRY)
        for query in (Q1, Q2, Q1, Q2):
            scheduler.submit(query, adaptivity=STATIC, degree=2)
        outcomes = scheduler.drain()
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert isinstance(outcome, (QueryResult, QueryFailed))
        assert all(session.state in TERMINAL_STATES
                   for session in scheduler.sessions)
        stats = scheduler.statistics()
        assert stats.completed + stats.failed == stats.admitted == 4

    def test_drain_with_timeouts_and_queued_sessions(self):
        _grid, scheduler = make_grid(None, max_concurrent=1, max_queued=4,
                                     query_timeout_ms=500.0)
        sessions = [scheduler.submit(Q1, adaptivity=STATIC)
                    for _ in range(3)]
        outcomes = scheduler.drain()
        assert len(outcomes) == 3
        assert all(outcome.cause == CAUSE_DEADLINE
                   for outcome in outcomes)
        # Queued sessions were dispatched (and then timed out) in
        # order; each successor starts when its predecessor aborts.
        starts = [session.started_at for session in sessions]
        assert starts == sorted(starts)
        assert scheduler.statistics().timed_out == 3

    def test_failed_dispatch_frees_the_slot_for_the_queue(self):
        grid, scheduler = make_grid(crash("compute-2", at_ms=600.0),
                                    max_concurrent=1, max_queued=4)
        first = scheduler.submit(Q1, adaptivity=STATIC, degree=2)
        second = scheduler.submit(Q1, adaptivity=STATIC, degree=1)
        outcomes = scheduler.drain()
        assert first.state == STATE_FAILED
        assert second.state == STATE_COMPLETED
        assert isinstance(outcomes[0], QueryFailed)
        assert isinstance(outcomes[1], QueryResult)


class TestConfigValidation:
    def test_scheduler_retry_must_be_bounded(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(retry=RetryPolicy(max_attempts=None))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(query_timeout_ms=0.0)
