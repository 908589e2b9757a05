"""Tests for concurrent query execution and utilisation accounting."""

import pytest

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.services.ws import shannon_entropy
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_machine_load,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=200,
                    sequence_length=24)


class TestConcurrentQueries:
    def submit_both(self, grid, adaptivity=None):
        adaptivity = adaptivity or AdaptivityConfig.disabled()
        first = grid.processor.gdqs.submit(Q1, adaptivity)
        second = grid.processor.gdqs.submit(Q2, adaptivity)
        # Taken at submit: a handle lets go of its runtime at the outcome.
        self.runtimes = (first.runtime, second.runtime)
        env = grid.context.env
        env.run(until=first.done)
        env.run(until=second.done)
        env.run()
        return first, second

    def test_concurrent_queries_are_both_correct(self):
        grid = DemoGrid(SPEC)
        first, second = self.submit_both(grid)
        expected_q1 = sorted(
            shannon_entropy(s) for s in grid.gds_map[
                "protein_sequences"].relation.column_values("sequence"))
        assert sorted(v[0] for v in first.result.values()) == pytest.approx(
            expected_q1)
        assert second.result.stats.result_count == 200

    def test_concurrency_costs_response_time(self):
        solo = DemoGrid(SPEC).run(Q1, AdaptivityConfig.disabled())
        grid = DemoGrid(SPEC)
        first, _second = self.submit_both(grid)
        # The shared data host serialises the two feeds.
        assert (first.result.response_time_ms
                > solo.response_time_ms * 1.3)

    def test_concurrent_adaptive_queries_do_not_interfere(self):
        grid = DemoGrid(SPEC)
        perturb_ws_cost(grid, 8.0)
        adaptivity = AdaptivityConfig(response=RESPONSE_R1,
                                      decision_latency_ms=100.0)
        first, second = self.submit_both(grid, adaptivity)
        assert first.result.stats.result_count == 150
        assert second.result.stats.result_count == 200
        # Replay duplicates (if any) were suppressed, never results.
        tids = [row.tid for row in first.result.rows]
        assert len(set(tids)) == len(tids)

    def test_queries_get_distinct_service_names(self):
        grid = DemoGrid(SPEC)
        self.submit_both(grid)
        first, second = self.runtimes
        names_1 = {g.name for g in first.all_gqes()}
        names_2 = {g.name for g in second.all_gqes()}
        assert not names_1 & names_2


class TestUtilisationAccounting:
    def test_utilisation_reported_per_machine(self):
        grid = DemoGrid(SPEC)
        result = grid.run(Q1, AdaptivityConfig.disabled())
        utilisation = result.stats.machine_utilisation
        assert set(utilisation) == {"data-host", "compute-1", "compute-2",
                                    "coordinator"}
        assert all(0.0 <= value <= 1.0 for value in utilisation.values())
        # The feed dominates: the data host is the busiest machine.
        assert utilisation["data-host"] == max(utilisation.values())
        assert utilisation["data-host"] > 0.8

    def test_perturbed_machine_shows_higher_utilisation(self):
        grid = DemoGrid(SPEC)
        perturb_ws_cost(grid, 10.0)
        result = grid.run(Q1, AdaptivityConfig.disabled())
        utilisation = result.stats.machine_utilisation
        assert utilisation["compute-1"] > utilisation["compute-2"]

    def test_second_query_utilisation_not_polluted_by_first(self):
        grid = DemoGrid(SPEC)
        grid.run(Q1, AdaptivityConfig.disabled())
        second = grid.run(Q1, AdaptivityConfig.disabled())
        # Deltas are per-query: still bounded and feed-dominated.
        utilisation = second.stats.machine_utilisation
        assert utilisation["data-host"] > 0.8
        assert utilisation["coordinator"] < 0.5


class TestMachineLoadScenario:
    def test_machine_wide_load_slows_everything(self):
        baseline = DemoGrid(SPEC).run(Q1, AdaptivityConfig.disabled())
        grid = DemoGrid(SPEC)
        perturb_machine_load(grid, 3.0)  # compute-1 fully loaded
        result = grid.run(Q1, AdaptivityConfig.disabled())
        assert result.response_time_ms > baseline.response_time_ms

    def test_adaptivity_compensates_machine_load(self):
        static_grid = DemoGrid(SPEC)
        perturb_machine_load(static_grid, 6.0)
        static = static_grid.run(Q1, AdaptivityConfig.disabled())
        adaptive_grid = DemoGrid(SPEC)
        perturb_machine_load(adaptive_grid, 6.0)
        adaptive = adaptive_grid.run(
            Q1, AdaptivityConfig(response=RESPONSE_R1,
                                 decision_latency_ms=100.0))
        assert adaptive.response_time_ms < static.response_time_ms

    def test_windowed_load(self):
        grid = DemoGrid(SPEC)
        perturb_machine_load(grid, 5.0, start_ms=100.0, end_ms=200.0)
        machine = grid.context.machine("compute-1")
        perturbation = machine.perturbations[0]
        assert perturbation.matches("anything", 150.0)
        assert not perturbation.matches("anything", 250.0)
