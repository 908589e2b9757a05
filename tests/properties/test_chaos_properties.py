"""Property tests: the chaos subsystem's determinism contract.

Three promises from the design:

* **Zero cost when off.**  A run with ``chaos=None`` and a run with a
  disabled-but-populated :class:`ChaosConfig` are bit-identical: same
  total event count, same full trace, same result rows.  Chaos that is
  switched off must not exist as far as the simulation can tell.
* **Reproducible when on.**  The same master seed and the same fault
  schedule replay the same faults, retries and results bit-for-bit —
  a chaotic run is still a deterministic simulation.
* **Transient stalls degrade gracefully.**  A clone frozen past the
  suspect deadline (but short of the failure deadline) is quarantined
  — its weight driven to zero, its recovery logs retained — and then
  reintegrated when its heartbeats resume; the query still returns
  the complete, correct row set and no machine is rebuilt.
"""

import collections
import dataclasses
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosConfig,
    FaultSchedule,
    LinkFault,
    MachineFreeze,
    ServiceFault,
)
from repro.config import AdaptivityConfig, FaultToleranceConfig
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24,
                    seed=int(os.environ.get("REPRO_TEST_SEED", "0")))

slow_settings = settings(max_examples=6, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: Disabled master switch over a fully populated schedule: none of it
#: may leak into the run.
DISABLED_BUT_POPULATED = ChaosConfig(
    enabled=False,
    schedule=FaultSchedule(
        link_faults=(LinkFault(drop_probability=0.5,
                               duplicate_probability=0.5,
                               delay_probability=0.5, delay_ms=40.0),),
        freezes=(MachineFreeze("compute-1", at_ms=100.0,
                               duration_ms=500.0),),
        service_faults=(ServiceFault(failure_probability=0.5),)))


def run_once(query, chaos, seed, adaptivity=None, spec=SPEC,
             fault_tolerance=None):
    grid = DemoGrid(dataclasses.replace(spec, seed=seed),
                    fault_tolerance=fault_tolerance, chaos=chaos)
    result = grid.run(query, adaptivity or AdaptivityConfig())
    timeline = [(event.timestamp, event.category, event.source,
                 event.description, event.data)
                for event in grid.context.tracer.events]
    return grid, result, timeline


@given(query=st.sampled_from([Q1, Q2]), seed=st.sampled_from([0, 1]))
@slow_settings
def test_disabled_chaos_is_bit_identical_to_no_chaos(query, seed):
    none_grid, none_result, none_timeline = run_once(query, None, seed)
    off_grid, off_result, off_timeline = run_once(
        query, DISABLED_BUT_POPULATED, seed)
    assert off_grid.chaos is None
    assert (none_grid.context.env.events_scheduled
            == off_grid.context.env.events_scheduled)
    assert none_timeline == off_timeline
    assert sorted(none_result.values()) == sorted(off_result.values())


#: A rule that matches every message sent after the run has ended.
NEVER_FIRES = ChaosConfig(enabled=True, schedule=FaultSchedule(
    link_faults=(LinkFault(drop_probability=0.5, duplicate_probability=0.5,
                           delay_probability=0.5, delay_ms=40.0,
                           start_ms=1e12),)))


@pytest.mark.parametrize("query", [Q1, Q2], ids=["Q1", "Q2"])
@pytest.mark.parametrize("adaptivity", [
    AdaptivityConfig.disabled(),
    AdaptivityConfig(assessment="A1", response="R1")],
    ids=["static", "A1R1"])
def test_a_fault_rule_that_never_fires_leaves_the_run_unchanged(
        query, adaptivity):
    """Metamorphic: enabling chaos with a link fault whose window opens
    after the run is the fault-free run, event for event — a buffer
    whose first copy arrives in time queues its delivery and nothing
    else (decision 40)."""
    spec = dataclasses.replace(SPEC, sequences_cardinality=300,
                               interactions_cardinality=400)
    runs = []
    for chaos in (None, NEVER_FIRES):
        grid = DemoGrid(spec, chaos=chaos)
        result = grid.run(query, adaptivity)
        runs.append((grid.context.env.events_scheduled,
                     result.response_time_ms,
                     collections.Counter(result.values())))
    assert grid.chaos.counters()["messages_dropped"] == 0
    assert runs[1] == runs[0]


@given(query=st.sampled_from([Q1, Q2]), seed=st.sampled_from([0, 1]))
@slow_settings
def test_same_seed_and_schedule_replay_the_same_chaos(query, seed):
    chaos = ChaosConfig.lossy(
        drop_probability=0.1, duplicate_probability=0.08,
        delay_probability=0.15, delay_ms=30.0,
        ws_failure_probability=0.3 if query == Q1 else 0.0)
    first_grid, first_result, first_timeline = run_once(query, chaos, seed)
    second_grid, second_result, second_timeline = run_once(
        query, chaos, seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert first_timeline == second_timeline
    assert first_result.values() == second_result.values()
    assert first_grid.chaos.counters() == second_grid.chaos.counters()
    assert first_result.response_time_ms == second_result.response_time_ms


def test_transient_stall_quarantines_then_reintegrates():
    spec = DemoGridSpec(sequences_cardinality=400,
                        interactions_cardinality=500)
    ft = FaultToleranceConfig(enabled=True,
                              heartbeat_interval_ms=200.0,
                              suspect_timeout_ms=500.0,
                              failure_timeout_ms=5000.0)
    chaos = ChaosConfig(enabled=True, schedule=FaultSchedule(
        freezes=(MachineFreeze("compute-2", at_ms=600.0,
                               duration_ms=1500.0),)))
    grid, result, timeline = run_once(Q1, chaos, 0, spec=spec,
                                      fault_tolerance=ft)
    # Complete, correct rows despite the stall.
    assert result.stats.result_count == 400
    # The stalled clone was quarantined and later reintegrated —
    # never declared dead (no recovery/rebuild).
    assert result.stats.clones_quarantined >= 1
    assert result.stats.clones_reintegrated >= 1
    assert result.stats.machines_recovered == 0
    descriptions = [entry[3] for entry in timeline]
    for expected in ("machine frozen", "gqes suspect",
                     "clone quarantined", "gqes recovered from suspect",
                     "clone reintegrated"):
        assert expected in descriptions, expected
    # Quarantine precedes reintegration.
    assert (descriptions.index("clone quarantined")
            < descriptions.index("clone reintegrated"))


def test_quarantine_zeroes_then_restores_the_clone_weight():
    spec = DemoGridSpec(sequences_cardinality=400,
                        interactions_cardinality=500)
    ft = FaultToleranceConfig(enabled=True,
                              heartbeat_interval_ms=200.0,
                              suspect_timeout_ms=500.0,
                              failure_timeout_ms=5000.0)
    chaos = ChaosConfig(enabled=True, schedule=FaultSchedule(
        freezes=(MachineFreeze("compute-2", at_ms=600.0,
                               duration_ms=1500.0),)))
    grid, _result, timeline = run_once(Q1, chaos, 0, spec=spec,
                                       fault_tolerance=ft)
    weights = [(entry[3], dict(entry[4])["weights"])
               for entry in timeline
               if entry[3] in ("clone quarantined", "clone reintegrated")]
    quarantined = dict(weights)["clone quarantined"]
    reintegrated = dict(weights)["clone reintegrated"]
    # The suspect clone's share goes to zero, then comes back.
    assert 0.0 in quarantined
    assert 0.0 not in reintegrated
    assert abs(sum(reintegrated) - 1.0) < 1e-9
