"""A run makes no cyclic garbage (DESIGN decision 43).

``Environment.run`` pauses Python's cycle collector for its loop, which
is sound only while everything a run lets go of is freed by reference
counting.  Each case here builds a small grid, keeps it referenced, and
runs one path of the system with the collector off; a full collection
afterwards must find nothing.  A failure names the types it found.
Each case also checks that its path was taken (a deadline aborted, a
clone was quarantined ...), so a case cannot pass by running nothing.
"""

import dataclasses
import os

import pytest

from repro.chaos import (
    ChaosConfig,
    FaultSchedule,
    MachineCrash,
    MachineFreeze,
    RetryPolicy,
)
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.dqp.gdqs import CAUSE_DEADLINE, QueryResult
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)
from tests.sim.test_environment import cyclic_garbage

SPEC = DemoGridSpec(sequences_cardinality=60, interactions_cardinality=90,
                    sequence_length=16, spare_machines=1,
                    seed=int(os.environ.get("REPRO_TEST_SEED", "0")))
SPEC3 = dataclasses.replace(SPEC, compute_machines=3, spare_machines=0)

GROUPED = ("select i.ORF1, count(*) from protein_sequences p, "
           "protein_interactions i where i.ORF1 = p.ORF group by i.ORF1")

STATIC = AdaptivityConfig.disabled()
A1R1 = AdaptivityConfig(assessment="A1", response="R1",
                        decision_latency_ms=100.0)
#: The policy tournament's twitchy A2+R1 loop.
TWITCHY = AdaptivityConfig(
    assessment="A2", response="R1", m1_interval=2, window_size=8,
    thres_m=0.08, thres_a=0.08, progress_cutoff=0.97, cooldown_ms=100.0,
    decision_latency_ms=100.0)

FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0)
#: No recovery budget: a lost machine escalates to a scheduler retry.
FT0 = dataclasses.replace(FT, max_recoveries=0)
#: A stall past the suspect deadline but short of the failure one.
FT_SUSPECT = dataclasses.replace(FT, suspect_timeout_ms=500.0,
                                 failure_timeout_ms=5000.0)

LOSSY = ChaosConfig.lossy(
    drop_probability=0.2, duplicate_probability=0.2, delay_probability=0.2,
    delay_ms=30.0, ws_failure_probability=0.2)


def single(query, adaptivity, **grid_options):
    """One query on a grid whose WS cost is perturbed (varying per
    tuple for the twitchy loop)."""
    def build():
        grid = DemoGrid(SPEC, **grid_options)
        if adaptivity is TWITCHY:
            perturb_ws_cost_varying(grid, 2.0, 20.0)
        else:
            perturb_ws_cost(grid, 8.0)
        return grid, lambda: grid.run(query, adaptivity)
    return build


def scheduled(chaos=None, **config):
    """Q1/Q2 static and A1+R1 through the multi-query scheduler."""
    def build():
        grid = DemoGrid(SPEC3, fault_tolerance=FT0, chaos=chaos)
        perturb_ws_cost(grid, 8.0)
        scheduler = grid.scheduler(SchedulerConfig(**config))

        def run():
            for index, query in enumerate((Q1, Q2, Q1, Q2)):
                scheduler.submit(
                    query, adaptivity=(STATIC, A1R1)[index % 2], degree=2)
            return scheduler.drain(), scheduler.statistics()
        return grid, run
    return build


def failing_at(query, adaptivity):
    def build():
        grid = DemoGrid(SPEC, fault_tolerance=FT)
        perturb_ws_cost(grid, 8.0)
        grid.fail_machine_at("compute-2", at_ms=600.0)
        return grid, lambda: grid.run(query, adaptivity)
    return build


def completes(_grid, result):
    return result.stats.result_count > 0


def deadline_aborts(_grid, outcome):
    outcomes, stats = outcome
    return stats.timed_out > 0 and all(
        getattr(each, "cause", None) == CAUSE_DEADLINE for each in outcomes)


def retries_to_completion(_grid, outcome):
    outcomes, stats = outcome
    return stats.retried > 0 and all(
        isinstance(each, QueryResult) for each in outcomes)


def every_fault_fires(grid, result):
    counters = grid.chaos.counters()
    return completes(grid, result) and all(
        counters[name] > 0 for name in (
            "messages_dropped", "messages_duplicated", "messages_delayed",
            "ws_failures_injected"))


def recovers(grid, result):
    return result.stats.machines_recovered == 1 and completes(grid, result)


def quarantines_and_reintegrates(_grid, result):
    return (result.stats.clones_quarantined >= 1
            and result.stats.clones_reintegrated >= 1
            and result.stats.machines_recovered == 0)


CASES = {
    f"{name}-{policy}": (single(query, adaptivity), completes)
    for name, query in (("Q1", Q1), ("Q2", Q2), ("grouped", GROUPED))
    for policy, adaptivity in (("static", STATIC), ("A1R1", A1R1),
                               ("twitchy-A2R1", TWITCHY))
}
CASES.update({
    "scheduler-deadline": (scheduled(max_concurrent=2,
                                     query_timeout_ms=500.0),
                           deadline_aborts),
    "scheduler-retry-after-crash": (
        scheduled(ChaosConfig.lossy(
            crashes=(MachineCrash("compute-2", at_ms=900.0),)),
            max_concurrent=4,
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                              backoff_cap_ms=1000.0)),
        retries_to_completion),
    "chaos-drop-duplicate-delay-ws-fail": (single(Q1, A1R1, chaos=LOSSY),
                                           every_fault_fires),
    "fail-machine-at-R1": (failing_at(Q2, A1R1), recovers),
    "freeze-quarantine-reintegrate": (
        single(Q1, A1R1, fault_tolerance=FT_SUSPECT,
               chaos=ChaosConfig(enabled=True, schedule=FaultSchedule(
                   freezes=(MachineFreeze("compute-2", at_ms=400.0,
                                          duration_ms=1500.0),)))),
        quarantines_and_reintegrates),
})


@pytest.mark.parametrize("case", list(CASES))
def test_a_run_leaves_nothing_for_the_cycle_collector(case):
    build, took_its_path = CASES[case]
    grid, run = build()
    outcomes = []
    found = cyclic_garbage(lambda: outcomes.append(run()))
    assert not found, f"cyclic garbage after the run: {dict(found)}"
    assert took_its_path(grid, outcomes[0])
