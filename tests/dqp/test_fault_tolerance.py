"""Fault-tolerance tests: machine failure, detection and recovery.

The paper's R1 response rides on infrastructure "developed mainly to
attain fault tolerance" [18]; these tests exercise that original
purpose: a compute machine crashes mid-query, the GDQS detects the
missed heartbeats, re-creates the lost evaluators (on a spare, or by
doubling up), and the feed producers replay their recovery logs —
with exactly-once results throughout.
"""

import collections
import math

import pytest

from repro.config import (
    RESPONSE_R1,
    RESPONSE_R2,
    AdaptivityConfig,
    FaultToleranceConfig,
)
from repro.data.batch import Batch
from repro.dqp.gqes import GQES
from repro.errors import ConfigurationError, ServiceError
from repro.recovery import Checkpoint
from repro.services.ws import shannon_entropy
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=300, interactions_cardinality=400,
                    sequence_length=24, spare_machines=1)
FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0)


def q1_reference(grid):
    relation = grid.gds_map["protein_sequences"].relation
    return sorted(shannon_entropy(s)
                  for s in relation.column_values("sequence"))


def q2_reference(grid):
    sequences = grid.gds_map["protein_sequences"].relation
    interactions = grid.gds_map["protein_interactions"].relation
    orfs = set(sequences.column_values("ORF"))
    return sorted(o2 for o1, o2 in (r.values for r in interactions)
                  if o1 in orfs)


def close_lists(got, expected):
    return (len(got) == len(expected)
            and all(math.isclose(a, b) for a, b in zip(got, expected)))


class TestFaultToleranceConfig:
    def test_defaults_disabled(self):
        assert not FaultToleranceConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval_ms": 0.0},
        {"heartbeat_interval_ms": 500.0, "failure_timeout_ms": 400.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultToleranceConfig(**kwargs)


class TestCrashMechanics:
    def test_fail_machine_crashes_its_services(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        grid.fail_machine_at("compute-2", at_ms=100.0)
        grid.context.env.run(until=200.0)
        services = [s for s in grid.context._services.values()
                    if s.machine.name == "compute-2"]
        # No query yet: only tracked services on that machine crash.
        assert all(s.crashed for s in services) or not services

    def test_messages_to_crashed_endpoint_are_dropped(self):
        grid = DemoGrid(SPEC)
        network = grid.context.network
        network.register("victim", "compute-1")
        network.deactivate("victim")
        from repro.net import KIND_DATA, Message
        network.send(Message(sender="gds:protein_sequences",
                             recipient="victim", kind=KIND_DATA,
                             payload=None, size_bytes=10))
        grid.context.env.run()
        assert network.messages_dropped == 1


class TestRecovery:
    def run_with_failure(self, query, at_ms, spec=SPEC, perturb=None,
                         adaptivity=None, machine="compute-2"):
        grid = DemoGrid(spec, fault_tolerance=FT)
        if perturb:
            perturb(grid)
        grid.fail_machine_at(machine, at_ms=at_ms)
        result = grid.run(query,
                          adaptivity or AdaptivityConfig.disabled())
        return grid, result

    def test_q1_failure_mid_feed_recovers_exactly_once(self):
        grid, result = self.run_with_failure(Q1, at_ms=900.0)
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1
        assert result.stats.tuples_replayed_for_recovery > 0

    def test_q1_failure_after_feed_completed(self):
        # A slowed machine stretches the run past the feed; when it
        # dies at 2.5 s the feed is finished and the lost backlog lives
        # only in consumer queues — recoverable solely from the logs.
        grid, result = self.run_with_failure(
            Q1, at_ms=2500.0, machine="compute-1",
            perturb=lambda g: perturb_ws_cost(g, 5.0))
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1

    def test_q2_failure_loses_join_state_and_rebuilds(self):
        grid, result = self.run_with_failure(Q2, at_ms=2000.0)
        assert sorted(v[0] for v in result.values()) == q2_reference(grid)
        assert result.stats.machines_recovered == 1
        # The replacement received the full build side again.
        assert result.stats.tuples_replayed_for_recovery > 100

    def test_replacement_prefers_spare_machine(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        grid.fail_machine_at("compute-2", at_ms=900.0)
        handle = grid.processor.gdqs.submit(Q1, AdaptivityConfig.disabled())
        runtime = handle.runtime  # released at the outcome
        grid.context.env.run(until=handle.done)
        assert handle.result.stats.machines_recovered == 1
        assert "spare-1" in runtime.gqes_by_machine

    def test_without_spare_doubles_up_on_survivor(self):
        import dataclasses
        spec = dataclasses.replace(SPEC, spare_machines=0)
        grid, result = self.run_with_failure(Q1, at_ms=900.0, spec=spec)
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1

    def test_failure_plus_adaptivity_q1(self):
        grid, result = self.run_with_failure(
            Q1, at_ms=1500.0,
            perturb=lambda g: perturb_ws_cost(g, 8.0),
            adaptivity=AdaptivityConfig(response=RESPONSE_R1,
                                        decision_latency_ms=200.0))
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1

    def test_failure_plus_adaptivity_q2(self):
        grid, result = self.run_with_failure(
            Q2, at_ms=2500.0,
            perturb=lambda g: perturb_join_sleep(g, 10.0),
            adaptivity=AdaptivityConfig(response=RESPONSE_R1,
                                        decision_latency_ms=200.0))
        assert sorted(v[0] for v in result.values()) == q2_reference(grid)
        assert result.stats.machines_recovered == 1

    def test_no_failure_means_no_recovery_activity(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        result = grid.run(Q1, AdaptivityConfig.disabled())
        assert result.stats.machines_recovered == 0
        assert result.stats.tuples_replayed_for_recovery == 0

    def test_heartbeats_observed_by_gdqs(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        env = grid.context.env
        failover = grid.processor.gdqs.failover
        handle = grid.processor.gdqs.submit(Q1, AdaptivityConfig.disabled())
        env.run(until=500.0)
        beats = failover.watched[handle.query_id].heartbeats
        assert any("compute-1" in name for name in beats)
        env.run(until=handle.done)
        env.run()
        # The query's failure state goes with its watch.
        assert not failover.watched

    def test_machines_recovered_counts_this_query_only(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        grid.fail_machine_at("compute-2", at_ms=900.0)
        recovered = [
            grid.run(Q1, AdaptivityConfig.disabled()).stats.machines_recovered
            for _ in range(3)]
        assert recovered == [1, 0, 0]

    def test_wheel_stops_when_idle_and_restarts_on_submit(self):
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        env = grid.context.env
        grid.run(Q1, AdaptivityConfig.disabled())
        # The drained grid holds no timer: the wheel exited with its
        # last watched query.
        assert env.peek() == math.inf
        grid.fail_machine_at("compute-2", at_ms=env.now + 900.0)
        result = grid.run(Q1, AdaptivityConfig.disabled())
        assert result.stats.machines_recovered == 1
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))

    def test_ft_forces_recovery_logging(self):
        from repro.config import EngineConfig
        grid = DemoGrid(SPEC, engine_config=EngineConfig(
            logging_enabled=False), fault_tolerance=FT)
        grid.fail_machine_at("compute-2", at_ms=900.0)
        result = grid.run(Q1, AdaptivityConfig.disabled())
        # Despite logging "disabled", recovery still has logs to replay.
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))

    def test_adaptation_aimed_at_a_dying_machine(self):
        """Regression: an R1 rebalance moved tuples *to* a machine in
        the instant it crashed; the replays were blackholed and the
        dead consumer's pre-crash announcements were already satisfied.
        Completion must wait for the failure to be handled so the
        recovery replay restores the moved backlog."""
        grid, result = self.run_with_failure(
            Q1, at_ms=998.0,
            perturb=lambda g: perturb_ws_cost(g, 6.0),
            adaptivity=AdaptivityConfig(response=RESPONSE_R1,
                                        decision_latency_ms=100.0))
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1

    def test_responder_death_mid_update_is_finalized(self):
        """Regression: the Responder (on compute-1) died between the
        replay and discard phases of an update, leaving the feed
        producer 'moving' forever; the GDQS now rolls the orphaned
        update forward during recovery."""
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        perturb_ws_cost(grid, 6.0)
        grid.fail_machine_at("compute-1", at_ms=1000.0)
        handle = grid.processor.gdqs.submit(
            Q1, AdaptivityConfig(response=RESPONSE_R1,
                                 decision_latency_ms=100.0))
        runtime = handle.runtime  # released at the outcome
        grid.context.env.run(until=handle.done)
        grid.context.env.run()
        result = handle.result
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1
        # No feed producer is left mid-move.
        for _endpoint, producer in runtime.feed_producers:
            assert not producer.protocol.moving

    def test_suspect_quarantine_survives_failed_recovery(self, monkeypatch):
        """Regression: when a recovery attempt aborted with a
        ``ServiceError``, the retry path dropped the quarantined clone
        indices recorded during the suspect phase; the eventual
        successful recovery then left the rebuilt clones parked at
        weight zero.  The suspect bookkeeping must survive the retry
        so the post-recovery reintegration finds them."""
        ft = FaultToleranceConfig(enabled=True,
                                  heartbeat_interval_ms=200.0,
                                  suspect_timeout_ms=400.0,
                                  failure_timeout_ms=1000.0)
        grid = DemoGrid(SPEC, fault_tolerance=ft)
        grid.fail_machine_at("compute-2", at_ms=900.0)
        failover = grid.processor.gdqs.failover
        real = failover.recover
        attempts = []

        def flaky(runtime, gqes):
            attempts.append(gqes.name)
            if len(attempts) == 1:
                raise ServiceError("injected: control peer unreachable")
            return (yield from real(runtime, gqes))

        monkeypatch.setattr(failover, "recover", flaky)
        result = grid.run(Q1, AdaptivityConfig())
        assert len(attempts) >= 2  # first attempt failed, then retried
        assert close_lists(sorted(v[0] for v in result.values()),
                           q1_reference(grid))
        assert result.stats.machines_recovered == 1
        # The silence window crossed suspect before failure: the
        # clones were quarantined, and — the regression — reintegrated
        # again once the retried recovery rebuilt them.
        assert result.stats.clones_quarantined >= 1
        assert result.stats.clones_reintegrated >= 1

    @pytest.mark.parametrize("response", [None, RESPONSE_R2, RESPONSE_R1])
    @pytest.mark.parametrize("query, at_ms, perturb, reference", [
        (Q1, 1500.0, lambda g: perturb_ws_cost(g, 8.0), q1_reference),
        (Q2, 2500.0, lambda g: perturb_join_sleep(g, 10.0), q2_reference),
    ], ids=["Q1", "Q2"])
    def test_only_blocks_and_checkpoints_reach_ingest(
            self, monkeypatch, query, at_ms, perturb, reference, response):
        """One wire: whatever the channel (stateless, build, probe),
        the response and the recovery resends, a data buffer holds
        ``Batch`` blocks and ``Checkpoint`` markers and nothing else."""
        seen = collections.Counter()
        on_data = GQES.on_data

        def recording_on_data(gqes, message):
            seen.update(type(item) for item in message.payload.items)
            on_data(gqes, message)

        monkeypatch.setattr(GQES, "on_data", recording_on_data)
        adaptivity = (AdaptivityConfig.disabled() if response is None
                      else AdaptivityConfig(response=response,
                                            decision_latency_ms=200.0))
        grid, result = self.run_with_failure(
            query, at_ms=at_ms, perturb=perturb, adaptivity=adaptivity)
        assert result.stats.machines_recovered == 1
        assert result.stats.tuples_replayed_for_recovery > 0
        if response is not None:
            assert result.stats.adaptations_accepted > 0
        got = sorted(v[0] for v in result.values())
        assert (got == reference(grid) if query is Q2
                else close_lists(got, reference(grid)))
        assert set(seen) == {Batch, Checkpoint}

    def test_response_time_reflects_recovery_cost(self):
        grid_ok = DemoGrid(SPEC, fault_tolerance=FT)
        clean = grid_ok.run(Q1, AdaptivityConfig.disabled())
        _grid, failed = self.run_with_failure(Q1, at_ms=900.0)
        assert failed.response_time_ms > clean.response_time_ms
