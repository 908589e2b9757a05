"""Property-based tests over full distributed runs.

The central invariant of the whole system: *whatever the
perturbations, policies and thresholds, an adaptive run returns
exactly the rows a static run returns* — adaptation changes when and
where tuples are processed, never the result.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import AdaptivityConfig
from repro.services.ws import shannon_entropy
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)

TINY = DemoGridSpec(sequences_cardinality=80, interactions_cardinality=120,
                    sequence_length=16)

slow_settings = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])

adaptivity_configs = st.builds(
    AdaptivityConfig,
    response=st.sampled_from(["R1", "R2"]),
    assessment=st.sampled_from(["A1", "A2"]),
    m1_interval=st.sampled_from([5, 10, 20]),
    thres_a=st.sampled_from([0.05, 0.2, 0.5]),
    decision_latency_ms=st.sampled_from([0.0, 50.0, 500.0]),
    cooldown_ms=st.sampled_from([0.0, 200.0]),
    progress_cutoff=st.sampled_from([0.5, 0.92]),
)


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


@given(config=adaptivity_configs,
       factor=st.sampled_from([1.0, 5.0, 15.0, 40.0]))
@slow_settings
def test_q1_result_invariant_under_any_policy(config, factor):
    grid = DemoGrid(TINY)
    if factor > 1.0:
        perturb_ws_cost(grid, factor)
    result = grid.run(Q1, config)
    assert sorted(v[0] for v in result.values()) == pytest.approx(
        q1_reference(grid))


@given(config=adaptivity_configs,
       sleep_ms=st.sampled_from([0.0, 5.0, 20.0, 60.0]))
@slow_settings
def test_q2_result_invariant_under_any_policy(config, sleep_ms):
    grid = DemoGrid(TINY)
    if sleep_ms > 0:
        perturb_join_sleep(grid, sleep_ms)
    result = grid.run(Q2, config)
    assert sorted(v[0] for v in result.values()) == q2_reference(grid)


@given(low=st.floats(min_value=1.0, max_value=10.0),
       spread=st.floats(min_value=0.0, max_value=30.0))
@slow_settings
def test_q1_under_stochastic_perturbation(low, spread):
    grid = DemoGrid(TINY)
    perturb_ws_cost_varying(grid, low, low + spread)
    result = grid.run(Q1, AdaptivityConfig(response="R1",
                                           decision_latency_ms=50.0))
    assert sorted(v[0] for v in result.values()) == pytest.approx(
        q1_reference(grid))


@given(seed=st.integers(min_value=0, max_value=2**16))
@slow_settings
def test_simulation_is_deterministic_per_seed(seed):
    spec = DemoGridSpec(sequences_cardinality=60,
                        interactions_cardinality=80,
                        sequence_length=16, seed=seed)

    def one_run():
        grid = DemoGrid(spec)
        perturb_ws_cost(grid, 8.0)
        return grid.run(Q1, AdaptivityConfig(response="R1",
                                             decision_latency_ms=50.0))

    first, second = one_run(), one_run()
    assert first.response_time_ms == second.response_time_ms
    assert first.values() == second.values()
    assert (first.stats.tuples_per_consumer
            == second.stats.tuples_per_consumer)


@given(degree=st.integers(min_value=1, max_value=4),
       factor=st.sampled_from([1.0, 10.0]))
@slow_settings
def test_any_partitioning_degree_is_correct(degree, factor):
    spec = DemoGridSpec(sequences_cardinality=60,
                        interactions_cardinality=80,
                        sequence_length=16, compute_machines=4)
    grid = DemoGrid(spec)
    if factor > 1.0:
        perturb_ws_cost(grid, factor)
    result = grid.run(Q1, AdaptivityConfig(decision_latency_ms=50.0),
                      degree=degree)
    assert len(result.rows) == 60
    used = sum(1 for c in result.stats.tuples_per_consumer if c > 0)
    assert used == degree
