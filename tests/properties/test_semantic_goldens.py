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

Two groups of cells, both captured for the two CI grid seeds:

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

Every cell was recaptured when a morsel's operator charges became one
CPU task (DESIGN.md decision 26 lists old -> new per cell): the
multiset hash — added and captured on the commit before — and the
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

from repro.config import AdaptivityConfig, EngineConfig
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
    print("}")


if __name__ == "__main__":
    _capture()
