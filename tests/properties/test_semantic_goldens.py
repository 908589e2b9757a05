"""Semantic goldens: what a run computes, pinned by value.

Each cell runs one query on one simulated world and fingerprints what
the paper's experiments observe:

* the result rows (content hash, arrival order included),
* the full trace timeline (timestamp/category/source/description of
  every event — any reordered or re-timed control decision changes
  this),
* the simulated response time,
* the number of adaptations deployed, and
* the result *multiset* (an order-free hash of the sorted rows): an
  intended behaviour change may move everything above, never this one
  or the adaptation count.

Host-side quantities (DES events queued, allocations, wall clock) are
deliberately *not* part of the contract: a refactor may queue fewer
events as long as every simulated observable above is unchanged.

Three groups of cells, all captured for the two CI grid seeds:

* ``<scenario>|<AxRy>|seed<n>`` — the paper's A×R policy grid on a
  600×900 world at the default batch size; captured on the commit
  before the policy seam was introduced (the Q2 cells recaptured when
  the hash join's build channel became a state channel), selected
  through ``policy="paper-XY"`` so name-keyed creation is pinned too.
* ``<scenario>|bs<k>|seed<n>`` — static, deterministic, stochastic and
  stateful-join runs across the batch-size axis on a 150×220 world
  (``bs1`` = one-row morsels through the same operator code);
  captured on the last commit that still shipped the alternative
  kernel, row data plane and per-query failure monitor, where all of
  those were property-tested bit-identical to what remains.  The four
  ``bs1`` R1 cells were recaptured when the per-tuple ``next()`` chain
  was deleted (see the comment above them).
* ``<scenario>|fault|seed<n>`` — the redistribution protocol's rare
  branches, which neither group above reaches: channel redirect after a
  crash (Q1, Q2), quarantine and reintegration of a frozen clone, the
  roll-forward of an update orphaned by the Responder's death (Q1, Q2)
  and multicast of build rows to a bucket's former owners.

The first two groups were recaptured when a morsel's operator charges
became one CPU task (DESIGN.md decision 26 lists old -> new per cell):
the multiset hash — added and captured on the commit before — and the
adaptation count of all 46 cells did not move, responses moved by
-1.48 ... +0.96 %, the arrival order in six cells, the trace (its
timestamps) in all.

To recapture after an *intended* behaviour change (prints the table
for both seeds; paste it over ``GOLDEN``)::

    PYTHONPATH=src python -m tests.properties.test_semantic_goldens
"""

import hashlib
import os

import pytest

from repro.chaos import ChaosConfig, FaultSchedule, MachineFreeze
from repro.config import AdaptivityConfig, EngineConfig, FaultToleranceConfig
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
CI_SEEDS = (0, 1)

#: scenario -> (query, perturbation applier) on the 600×900 world.
POLICY_SCENARIOS = {
    "Q1-ws10": (Q1, lambda grid: perturb_ws_cost(grid, factor=10.0)),
    "Q2-sleep20": (Q2,
                   lambda grid: perturb_join_sleep(grid, sleep_ms=20.0)),
}
COMBOS = ("A1R1", "A1R2", "A2R1", "A2R2")

#: scenario -> (query, perturbation applier or None, adaptivity) on the
#: 150×220 world, swept over BATCH_SIZES.
BATCH_SCENARIOS = {
    "Q1-static": (Q1, None, AdaptivityConfig.disabled()),
    "Q2-static": (Q2, None, AdaptivityConfig.disabled()),
    "Q1-ws10": (Q1, lambda grid: perturb_ws_cost(grid, factor=10.0),
                AdaptivityConfig(assessment="A1", response="R1",
                                 decision_latency_ms=100.0)),
    "Q1-stochastic": (
        Q1, lambda grid: perturb_ws_cost_varying(grid, 2.0, 20.0),
        AdaptivityConfig(response="R2", decision_latency_ms=50.0)),
    "Q2-sleep20": (Q2,
                   lambda grid: perturb_join_sleep(grid, sleep_ms=20.0),
                   AdaptivityConfig(assessment="A2", response="R1",
                                    decision_latency_ms=50.0)),
}
BATCH_SIZES = (1, 32, 128)

#: Heartbeat pacing of the crash worlds (tests/dqp/test_fault_tolerance).
CRASH_FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                                failure_timeout_ms=700.0)


def _crash_world(seed, machine, at_ms, perturb):
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=300,
                                 interactions_cardinality=400,
                                 sequence_length=24, spare_machines=1,
                                 seed=seed),
                    fault_tolerance=CRASH_FT)
    perturb(grid)
    grid.fail_machine_at(machine, at_ms=at_ms)
    return grid


def _freeze_world(seed):
    """The transient-stall world of test_chaos_properties."""
    ft = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                              suspect_timeout_ms=500.0,
                              failure_timeout_ms=5000.0)
    chaos = ChaosConfig(enabled=True, schedule=FaultSchedule(
        freezes=(MachineFreeze("compute-2", at_ms=600.0,
                               duration_ms=1500.0),)))
    return DemoGrid(DemoGridSpec(sequences_cardinality=400,
                                 interactions_cardinality=500, seed=seed),
                    fault_tolerance=ft, chaos=chaos)


def _multicast_world(seed):
    """The shrunk fuzzer scenario f3069968e00a (a Q2 run) on world
    ``seed``."""
    from repro.scengen import runner
    from repro.scengen.grammar import Scenario
    from tests.regressions.test_shrunk_f3069968e00a import SCENARIO

    scenario = Scenario.from_json(dict(SCENARIO, world_seed=seed))
    grid = DemoGrid(runner.grid_spec(scenario),
                    engine_config=runner.engine_config_for(scenario),
                    fault_tolerance=runner.fault_tolerance_for(scenario),
                    chaos=runner.chaos_config_for(scenario))
    runner.apply_perturbations(grid, scenario)
    return grid, Q2, runner.adaptivity_for(scenario)


R1 = dict(assessment="A1", response="R1")

#: Fault-path cells: each reaches a branch of the redistribution
#: protocol that no policy or batch cell reaches.  scenario -> seed ->
#: (grid, query, adaptivity).
FAULT_SCENARIOS = {
    # compute-2 crashes mid-run: the feed producers redirect its
    # channels to the spare and resend their recovery logs.
    "Q1-crash": lambda seed: (
        _crash_world(seed, "compute-2", 1500.0,
                     lambda grid: perturb_ws_cost(grid, factor=8.0)),
        Q1, AdaptivityConfig(decision_latency_ms=200.0, **R1)),
    "Q2-crash": lambda seed: (
        _crash_world(seed, "compute-2", 2500.0,
                     lambda grid: perturb_join_sleep(grid, sleep_ms=10.0)),
        Q2, AdaptivityConfig(decision_latency_ms=200.0, **R1)),
    # compute-1 (the Responder's host) dies inside an update's replay
    # phase: the GDQS rolls the orphaned update forward — Q1's one feed
    # only needs its discard phase; Q2's build feed has replayed, its
    # probe feed has not, so the roll-forward replays the probe feed
    # and skips the build feed.
    "Q1-responder-crash": lambda seed: (
        _crash_world(seed, "compute-1", 1200.0,
                     lambda grid: perturb_ws_cost(grid, factor=6.0)),
        Q1, AdaptivityConfig(decision_latency_ms=100.0, **R1)),
    "Q2-responder-crash": lambda seed: (
        _crash_world(seed, "compute-1", 2850.0,
                     lambda grid: perturb_join_sleep(grid, sleep_ms=10.0)),
        Q2, AdaptivityConfig(decision_latency_ms=100.0, **R1)),
    # A frozen clone is quarantined, then reintegrated.
    "Q1-freeze": lambda seed: (_freeze_world(seed), Q1, AdaptivityConfig()),
    # A quarantined join clone's buckets move and move back: build rows
    # are multicast to every owner a bucket ever had.
    "Q2-multicast": _multicast_world,
}

#: key -> (rows sha, trace sha, response_ms, adaptations accepted,
#: order-free result-multiset sha).
GOLDEN = {
    "Q1-ws10|A1R1|seed0": ("260d2403bcd62319", "d645c9271b1ef6f0",
                           5945.63552000001, 1, "04e44edd0fc574dd"),
    "Q1-ws10|A1R1|seed1": ("afa4d010a63af86b", "d645c9271b1ef6f0",
                           5945.63552000001, 1, "187cb59db2242347"),
    "Q1-ws10|A1R2|seed0": ("63d5b0518482a56f", "c633e4cc994dcf5a",
                           14868.880320000007, 1, "04e44edd0fc574dd"),
    "Q1-ws10|A1R2|seed1": ("d3d46eed8a15f59b", "c633e4cc994dcf5a",
                           14868.880320000007, 1, "187cb59db2242347"),
    "Q1-ws10|A2R1|seed0": ("260d2403bcd62319", "da6bf5cdc72d2c86",
                           5932.24032000001, 1, "04e44edd0fc574dd"),
    "Q1-ws10|A2R1|seed1": ("afa4d010a63af86b", "da6bf5cdc72d2c86",
                           5932.24032000001, 1, "187cb59db2242347"),
    "Q1-ws10|A2R2|seed0": ("63d5b0518482a56f", "c633e4cc994dcf5a",
                           14868.880320000007, 1, "04e44edd0fc574dd"),
    "Q1-ws10|A2R2|seed1": ("d3d46eed8a15f59b", "c633e4cc994dcf5a",
                           14868.880320000007, 1, "187cb59db2242347"),
    # The Q2 fingerprints were recaptured when the hash join's build
    # channel became a state channel (the producer retains routed rows
    # and copy-replays moved buckets on *every* bucket-map change, not
    # only retrospective ones): R1 runs deliver the same row multiset
    # in a different arrival order, and every adaptive run schedules
    # the extra retention/replay events.  The R2 response times are
    # bit-identical to the previous capture — the state replay is off
    # the critical path — and the result multiset was verified against
    # the static plan before recapturing.
    "Q2-sleep20|A1R1|seed0": ("7a8aaf2ddc6cfd7e", "4c1f5b9d0cbe471d",
                              10310.49968, 1, "6f218a4121709f4d"),
    "Q2-sleep20|A1R1|seed1": ("93270bf2d4a0a1ae", "09316f3d9182c845",
                              10174.3324, 1, "802e00fa9feff43e"),
    "Q2-sleep20|A1R2|seed0": ("08752dd6285e1250", "17b21422325d3eb7",
                              14973.635279999995, 1, "6f218a4121709f4d"),
    "Q2-sleep20|A1R2|seed1": ("9c9bae50fd80fa62", "40222fd2b1636329",
                              15308.199359999993, 1, "802e00fa9feff43e"),
    "Q2-sleep20|A2R1|seed0": ("1c2b38cadcb63178", "b9b7db4536b17000",
                              10799.924879999999, 1, "6f218a4121709f4d"),
    "Q2-sleep20|A2R1|seed1": ("ec0834e7b784cec8", "0fec2b6fbe0e4d33",
                              10536.603199999994, 1, "802e00fa9feff43e"),
    "Q2-sleep20|A2R2|seed0": ("08752dd6285e1250", "93756e84b428fd59",
                              14973.635279999995, 1, "6f218a4121709f4d"),
    "Q2-sleep20|A2R2|seed1": ("9c9bae50fd80fa62", "6a3e49fcc8b05e1a",
                              15308.199359999993, 1, "802e00fa9feff43e"),
    # Batch-size axis (150×220 world).
    "Q1-static|bs1|seed0": ("f57269dfb2edadfd", "b1f9ff67cb7c9dfa",
                            1131.8848000000025, 0, "1c330218dd630c34"),
    "Q1-static|bs1|seed1": ("e90821cf7d4fa884", "b1f9ff67cb7c9dfa",
                            1131.8848000000025, 0, "73f22bbdfda6de8b"),
    "Q1-static|bs32|seed0": ("f57269dfb2edadfd", "52b9ec2077d5287a",
                             1131.8847999999996, 0, "1c330218dd630c34"),
    "Q1-static|bs32|seed1": ("e90821cf7d4fa884", "52b9ec2077d5287a",
                             1131.8847999999996, 0, "73f22bbdfda6de8b"),
    "Q1-static|bs128|seed0": ("f57269dfb2edadfd", "384748dc0d15f9ff",
                              1131.8848000000003, 0, "1c330218dd630c34"),
    "Q1-static|bs128|seed1": ("e90821cf7d4fa884", "384748dc0d15f9ff",
                              1131.8848000000003, 0, "73f22bbdfda6de8b"),
    "Q1-stochastic|bs1|seed0": ("4e77e8522f892bc7", "3a44c270281bd689",
                                4698.948061057619, 1, "1c330218dd630c34"),
    "Q1-stochastic|bs1|seed1": ("b61b751609a84919", "ffd930a7c7e5616e",
                                4622.776550597971, 1, "73f22bbdfda6de8b"),
    "Q1-stochastic|bs32|seed0": ("4e77e8522f892bc7", "cbbf28f7bc9ce6d9",
                                 4698.948061057616, 1, "1c330218dd630c34"),
    "Q1-stochastic|bs32|seed1": ("b61b751609a84919", "46380b480652bd62",
                                 4622.776550597969, 1, "73f22bbdfda6de8b"),
    "Q1-stochastic|bs128|seed0": ("4e77e8522f892bc7", "cbbf28f7bc9ce6d9",
                                  4698.948061057616, 1, "1c330218dd630c34"),
    "Q1-stochastic|bs128|seed1": ("b61b751609a84919", "46380b480652bd62",
                                  4622.776550597969, 1, "73f22bbdfda6de8b"),
    # The four bs1 R1 cells (these two and Q2-sleep20|bs1) were
    # recaptured when the per-tuple next() chain was deleted.  With only
    # its dispatch branches removed all 46 cells matched unmodified;
    # deleting the chain then moved exactly these, rows sha and
    # adaptation count unchanged: an R1 replay at one-row morsels used
    # to charge log-append per moved row and flush channel by channel,
    # and now charges one burst and transmits after placing, as at
    # every other batch size (Q1 response 1682.1170 -> 1684.3370 ms,
    # +0.13 %; Q2 response identical, trace only).
    "Q1-ws10|bs1|seed0": ("43360fa6f31cf51f", "93156b4daf7cb5a0",
                          1684.037039999989, 1, "1c330218dd630c34"),
    "Q1-ws10|bs1|seed1": ("b935e40cc5e13be6", "93156b4daf7cb5a0",
                          1684.037039999989, 1, "73f22bbdfda6de8b"),
    "Q1-ws10|bs32|seed0": ("1849920cc5eba574", "df2075745d5ab907",
                           1684.0370399999995, 1, "1c330218dd630c34"),
    "Q1-ws10|bs32|seed1": ("c039493567ceb55d", "df2075745d5ab907",
                           1684.0370399999995, 1, "73f22bbdfda6de8b"),
    "Q1-ws10|bs128|seed0": ("1849920cc5eba574", "df2075745d5ab907",
                            1684.0370399999995, 1, "1c330218dd630c34"),
    "Q1-ws10|bs128|seed1": ("c039493567ceb55d", "df2075745d5ab907",
                            1684.0370399999995, 1, "73f22bbdfda6de8b"),
    "Q2-sleep20|bs1|seed0": ("85b7c868a3018b1c", "f26cb74e384f3611",
                             2029.9418400000068, 1, "4352196afd664299"),
    "Q2-sleep20|bs1|seed1": ("fa2c0eeaa728b7d6", "2537bb987ee22662",
                             2033.1374400000072, 1, "9f8dd266dd8b427d"),
    "Q2-sleep20|bs32|seed0": ("85b7c868a3018b1c", "6102342fc13c57da",
                              2047.6509600000002, 1, "4352196afd664299"),
    "Q2-sleep20|bs32|seed1": ("fa2c0eeaa728b7d6", "a11f4ed8bef602e5",
                              2060.6665599999997, 1, "9f8dd266dd8b427d"),
    "Q2-sleep20|bs128|seed0": ("85b7c868a3018b1c", "6102342fc13c57da",
                               2047.6509600000002, 1, "4352196afd664299"),
    "Q2-sleep20|bs128|seed1": ("fa2c0eeaa728b7d6", "a11f4ed8bef602e5",
                               2060.6665599999997, 1, "9f8dd266dd8b427d"),
    "Q2-static|bs1|seed0": ("5e9bcc50391d8879", "5b2eb6fcf3d028c7",
                            1323.0620799999997, 0, "4352196afd664299"),
    "Q2-static|bs1|seed1": ("298fa11a2cff5c54", "414f3d6d1a92f9d6",
                            1317.506879999999, 0, "9f8dd266dd8b427d"),
    "Q2-static|bs32|seed0": ("5e9bcc50391d8879", "33819b40d4c80e95",
                             1327.914639999999, 0, "4352196afd664299"),
    "Q2-static|bs32|seed1": ("7ac61e1c86413c3b", "bd01f147efbf2617",
                             1337.3610399999989, 0, "9f8dd266dd8b427d"),
    "Q2-static|bs128|seed0": ("5e9bcc50391d8879", "3c867de237715ead",
                              1324.66104, 0, "4352196afd664299"),
    "Q2-static|bs128|seed1": ("7ac61e1c86413c3b", "2ce057338e2c7010",
                              1341.1146399999998, 0, "9f8dd266dd8b427d"),
    # Fault paths, captured on the commit before the redistribution
    # protocol left the exchange producer (DESIGN.md decision 27).
    "Q1-crash|fault|seed0": ("f1c9de8c064cb865", "5b3ec8d8c59cc460",
                             3605.231199999997, 1, "1169c78f6346ac40"),
    "Q1-crash|fault|seed1": ("b9d2e1b99fc39833", "5b3ec8d8c59cc460",
                             3605.231199999997, 1, "b088ef159de76019"),
    "Q1-freeze|fault|seed0": ("ab6b3eeb2abfdbd2", "4a68ac7495a8554f",
                              3076.463440000003, 0, "e05b1e4476dab139"),
    "Q1-freeze|fault|seed1": ("6d8f73cb2bd0133b", "4a68ac7495a8554f",
                              3076.463440000003, 0, "ee99c88c6cc82b0c"),
    "Q1-responder-crash|fault|seed0": (
        "db4a5c32bae7b2ef", "a40470304e1cd472", 2415.4741599999998, 0,
        "1169c78f6346ac40"),
    "Q1-responder-crash|fault|seed1": (
        "978675a2d48da5fe", "a40470304e1cd472", 2415.4741599999998, 0,
        "b088ef159de76019"),
    "Q2-crash|fault|seed0": ("1217614983cba5ee", "f166cc0ea87a40a3",
                             4190.86896, 1, "86ac80e6dd9e795e"),
    "Q2-crash|fault|seed1": ("d37bc6355df30142", "bba17112fb257412",
                             4146.535199999998, 1, "f05b50a247e25951"),
    "Q2-multicast|fault|seed0": ("0cc22a720675a08c", "0357f270a3f22474",
                                 2575.544719999984, 0, "d73dd0b10e6c1428"),
    "Q2-multicast|fault|seed1": ("1a0de5471785d7f6", "b3d2a2b5c89d0a94",
                                 2580.5919199999844, 0, "06fc170c3b6aebf0"),
    "Q2-responder-crash|fault|seed0": (
        "ff3c97f6f41bfd08", "65922aa073e27924", 4182.607359999998, 0,
        "86ac80e6dd9e795e"),
    "Q2-responder-crash|fault|seed1": (
        "afef7c9d160770f8", "7b5b95412314a362", 4137.2149599999975, 0,
        "f05b50a247e25951"),
}


def _fingerprint(grid, query, perturb, adaptivity):
    if perturb is not None:
        perturb(grid)
    result = grid.run(query, adaptivity)
    timeline = [(event.timestamp, event.category, event.source,
                 event.description)
                for event in grid.context.tracer.events]
    rows_sha = hashlib.sha256(
        "\n".join(repr(row) for row in result.rows)
        .encode()).hexdigest()[:16]
    trace_sha = hashlib.sha256(repr(timeline).encode()).hexdigest()[:16]
    multiset_sha = hashlib.sha256(
        "\n".join(sorted(repr(row) for row in result.rows))
        .encode()).hexdigest()[:16]
    return (rows_sha, trace_sha, result.response_time_ms,
            result.stats.adaptations_accepted, multiset_sha)


def policy_fingerprint(scenario, combo, seed):
    query, perturb = POLICY_SCENARIOS[scenario]
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=600,
                                 interactions_cardinality=900,
                                 seed=seed))
    return _fingerprint(grid, query, perturb,
                        AdaptivityConfig(policy=f"paper-{combo}"))


def batch_fingerprint(scenario, batch_size, seed):
    query, perturb, adaptivity = BATCH_SCENARIOS[scenario]
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=150,
                                 interactions_cardinality=220,
                                 sequence_length=24, seed=seed),
                    engine_config=EngineConfig(batch_size=batch_size))
    return _fingerprint(grid, query, perturb, adaptivity)


def fault_fingerprint(scenario, seed):
    grid, query, adaptivity = FAULT_SCENARIOS[scenario](seed)
    return _fingerprint(grid, query, None, adaptivity)


def _golden(key):
    if key not in GOLDEN:
        pytest.skip(f"no golden captured for seed {SEED}")
    return GOLDEN[key]


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("scenario", sorted(POLICY_SCENARIOS))
def test_paper_policy_matches_golden(scenario, combo):
    assert (policy_fingerprint(scenario, combo, SEED)
            == _golden(f"{scenario}|{combo}|seed{SEED}"))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("scenario", sorted(BATCH_SCENARIOS))
def test_batch_axis_matches_golden(scenario, batch_size):
    assert (batch_fingerprint(scenario, batch_size, SEED)
            == _golden(f"{scenario}|bs{batch_size}|seed{SEED}"))


@pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
def test_fault_path_matches_golden(scenario):
    assert (fault_fingerprint(scenario, SEED)
            == _golden(f"{scenario}|fault|seed{SEED}"))


def test_axes_config_and_named_policy_share_one_controller():
    """Legacy axes spelling resolves to the very same policy."""
    from repro.policy import create_policy

    legacy = AdaptivityConfig(assessment="A2", response="R1")
    named = AdaptivityConfig(policy="paper-A2R1")
    assert legacy.policy_name == named.policy_name == "paper-A2R1"
    assert named.assessment == "A2" and named.response == "R1"
    assert type(create_policy(legacy)) is type(create_policy(named))
    assert create_policy(legacy).name == create_policy(named).name


def _capture():
    """Print a fresh ``GOLDEN`` table for both CI seeds."""
    print("GOLDEN = {")
    for scenario in sorted(POLICY_SCENARIOS):
        for combo in COMBOS:
            for seed in CI_SEEDS:
                print(f'    "{scenario}|{combo}|seed{seed}": '
                      f"{policy_fingerprint(scenario, combo, seed)!r},")
    for scenario in sorted(BATCH_SCENARIOS):
        for batch_size in BATCH_SIZES:
            for seed in CI_SEEDS:
                print(f'    "{scenario}|bs{batch_size}|seed{seed}": '
                      f"{batch_fingerprint(scenario, batch_size, seed)!r},")
    for scenario in sorted(FAULT_SCENARIOS):
        for seed in CI_SEEDS:
            print(f'    "{scenario}|fault|seed{seed}": '
                  f"{fault_fingerprint(scenario, seed)!r},")
    print("}")


if __name__ == "__main__":
    _capture()
