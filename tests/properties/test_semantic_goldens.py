"""Semantic goldens: what a run computes, pinned by value.

Each cell runs one query on one simulated world and fingerprints what
the paper's experiments observe:

* the result rows (content hash, arrival order included),
* the full trace timeline (timestamp/category/source/description of
  every event — any reordered or re-timed control decision changes
  this),
* the simulated response time, and
* the number of adaptations deployed.

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

#: key -> (rows sha, trace sha, response_ms, adaptations accepted).
GOLDEN = {
    "Q1-ws10|A1R1|seed0": ("260d2403bcd62319", "9555e62173ad650c",
                           5948.63551999999, 1),
    "Q1-ws10|A1R1|seed1": ("afa4d010a63af86b", "9555e62173ad650c",
                           5948.63551999999, 1),
    "Q1-ws10|A1R2|seed0": ("63d5b0518482a56f", "53c5c363f7e4aaaa",
                           14868.38032, 1),
    "Q1-ws10|A1R2|seed1": ("d3d46eed8a15f59b", "53c5c363f7e4aaaa",
                           14868.38032, 1),
    "Q1-ws10|A2R1|seed0": ("260d2403bcd62319", "5817e1115e45d012",
                           5935.240319999991, 1),
    "Q1-ws10|A2R1|seed1": ("afa4d010a63af86b", "5817e1115e45d012",
                           5935.240319999991, 1),
    "Q1-ws10|A2R2|seed0": ("63d5b0518482a56f", "53c5c363f7e4aaaa",
                           14868.38032, 1),
    "Q1-ws10|A2R2|seed1": ("d3d46eed8a15f59b", "53c5c363f7e4aaaa",
                           14868.38032, 1),
    # The Q2 fingerprints were recaptured when the hash join's build
    # channel became a state channel (the producer retains routed rows
    # and copy-replays moved buckets on *every* bucket-map change, not
    # only retrospective ones): R1 runs deliver the same row multiset
    # in a different arrival order, and every adaptive run schedules
    # the extra retention/replay events.  The R2 response times are
    # bit-identical to the previous capture — the state replay is off
    # the critical path — and the result multiset was verified against
    # the static plan before recapturing.
    "Q2-sleep20|A1R1|seed0": ("d42954e95661552e", "07c7f3e25ab74981",
                              10349.951840000007, 1),
    "Q2-sleep20|A1R1|seed1": ("b43ead367341c463", "6c12fece9e8ae643",
                              10327.11816, 1),
    "Q2-sleep20|A1R2|seed0": ("08752dd6285e1250", "e3510693aa45c0ec",
                              15005.757439999994, 1),
    "Q2-sleep20|A1R2|seed1": ("9c9bae50fd80fa62", "2009cd22b977053e",
                              15325.052159999994, 1),
    "Q2-sleep20|A2R1|seed0": ("cc7f60e30985a8fa", "2bc8ca32cf48a179",
                              10902.454240000001, 1),
    "Q2-sleep20|A2R1|seed1": ("ec0834e7b784cec8", "eb37719660c54855",
                              10560.734559999999, 1),
    "Q2-sleep20|A2R2|seed0": ("08752dd6285e1250", "bc4a3da2cb0187b9",
                              15005.757439999994, 1),
    "Q2-sleep20|A2R2|seed1": ("9c9bae50fd80fa62", "fd5aca34782d4721",
                              15325.052159999994, 1),
    # Batch-size axis (150×220 world).
    "Q1-static|bs1|seed0": ("f57269dfb2edadfd", "a906a7298f64a8fa",
                            1131.8848000000007, 0),
    "Q1-static|bs1|seed1": ("e90821cf7d4fa884", "a906a7298f64a8fa",
                            1131.8848000000007, 0),
    "Q1-static|bs32|seed0": ("f57269dfb2edadfd", "15f332d09cbbcaf8",
                             1131.8847999999998, 0),
    "Q1-static|bs32|seed1": ("e90821cf7d4fa884", "15f332d09cbbcaf8",
                             1131.8847999999998, 0),
    "Q1-static|bs128|seed0": ("f57269dfb2edadfd", "79766fbefda951fe",
                              1131.8848, 0),
    "Q1-static|bs128|seed1": ("e90821cf7d4fa884", "79766fbefda951fe",
                              1131.8848, 0),
    "Q1-stochastic|bs1|seed0": ("4e77e8522f892bc7", "b6bb5693c2e0cae0",
                                4698.9480610576165, 1),
    "Q1-stochastic|bs1|seed1": ("b61b751609a84919", "929d9d396127705a",
                                4622.776550597968, 1),
    "Q1-stochastic|bs32|seed0": ("4e77e8522f892bc7", "9eaa746be4c2011e",
                                 4698.948061057615, 1),
    "Q1-stochastic|bs32|seed1": ("b61b751609a84919", "5bd6caf804b3caf0",
                                 4622.776550597969, 1),
    "Q1-stochastic|bs128|seed0": ("4e77e8522f892bc7", "9eaa746be4c2011e",
                                  4698.948061057615, 1),
    "Q1-stochastic|bs128|seed1": ("b61b751609a84919", "5bd6caf804b3caf0",
                                  4622.776550597969, 1),
    # The four bs1 R1 cells (these two and Q2-sleep20|bs1) were
    # recaptured when the per-tuple next() chain was deleted.  With only
    # its dispatch branches removed all 46 cells matched unmodified;
    # deleting the chain then moved exactly these, rows sha and
    # adaptation count unchanged: an R1 replay at one-row morsels used
    # to charge log-append per moved row and flush channel by channel,
    # and now charges one burst and transmits after placing, as at
    # every other batch size (Q1 response 1682.1170 -> 1684.3370 ms,
    # +0.13 %; Q2 response identical, trace only).
    "Q1-ws10|bs1|seed0": ("f456fc953f697d4d", "146d252ce9464584",
                          1684.337039999993, 1),
    "Q1-ws10|bs1|seed1": ("fcf1613b1ca323c0", "146d252ce9464584",
                          1684.337039999993, 1),
    "Q1-ws10|bs32|seed0": ("1849920cc5eba574", "59958e7738d9b167",
                           1687.03704, 1),
    "Q1-ws10|bs32|seed1": ("c039493567ceb55d", "59958e7738d9b167",
                           1687.03704, 1),
    "Q1-ws10|bs128|seed0": ("1849920cc5eba574", "59958e7738d9b167",
                            1687.03704, 1),
    "Q1-ws10|bs128|seed1": ("c039493567ceb55d", "59958e7738d9b167",
                            1687.03704, 1),
    "Q2-sleep20|bs1|seed0": ("85b7c868a3018b1c", "7e0a4829e27cccb9",
                             2024.5981600000066, 1),
    "Q2-sleep20|bs1|seed1": ("fa2c0eeaa728b7d6", "301f88db3ded90d1",
                             2031.1374400000093, 1),
    "Q2-sleep20|bs32|seed0": ("85b7c868a3018b1c", "97dfd731a8f4c7b5",
                              2042.4821600000014, 1),
    "Q2-sleep20|bs32|seed1": ("fa2c0eeaa728b7d6", "14481a2bb0440a29",
                              2053.282560000001, 1),
    "Q2-sleep20|bs128|seed0": ("85b7c868a3018b1c", "97dfd731a8f4c7b5",
                               2042.4821600000014, 1),
    "Q2-sleep20|bs128|seed1": ("fa2c0eeaa728b7d6", "14481a2bb0440a29",
                               2053.282560000001, 1),
    "Q2-static|bs1|seed0": ("5e9bcc50391d8879", "c0d0155757174e3c",
                            1323.062079999998, 0),
    "Q2-static|bs1|seed1": ("298fa11a2cff5c54", "c970a02987615e48",
                            1317.5068799999974, 0),
    "Q2-static|bs32|seed0": ("5e9bcc50391d8879", "8f99fcb08fc4c8fc",
                             1327.5842399999992, 0),
    "Q2-static|bs32|seed1": ("7ac61e1c86413c3b", "fae95dc827c4fc54",
                             1334.7850399999993, 0),
    "Q2-static|bs128|seed0": ("5e9bcc50391d8879", "5f84bdb1d66a8eb5",
                              1323.0002399999998, 0),
    "Q2-static|bs128|seed1": ("4f5375d6b7fc5fa4", "4e615ffda018e450",
                              1328.4154399999993, 0),
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
    return (rows_sha, trace_sha, result.response_time_ms,
            result.stats.adaptations_accepted)


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
