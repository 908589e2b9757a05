"""Unit tests for the demo grid, queries and perturbation scenarios."""

import pytest

from repro.config import AdaptivityConfig
from repro.grid.perturbation import CostFactor, SleepInjection
from repro.services.ws import shannon_entropy
from repro.workloads import (
    COORDINATOR,
    DATA_HOST,
    DemoGrid,
    DemoGridSpec,
    JOIN_LABEL,
    Q1,
    Q2,
    WS_LABEL,
    compute_machine_name,
    perturb_join_sleep,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)
from repro.workloads.scenarios import perturb_transient_load


class TestDemoGrid:
    def test_machines_match_paper_testbed(self):
        grid = DemoGrid()
        names = [m.name for m in grid.context.registry.materialized_machines()]
        assert COORDINATOR in names
        assert DATA_HOST in names
        assert "compute-1" in names and "compute-2" in names
        # Only compute machines are schedulable.
        assert grid.context.registry.compute_machines() == [
            "compute-1", "compute-2"]

    def test_default_cardinalities_match_paper(self):
        grid = DemoGrid()
        assert grid.gds_map["protein_sequences"].relation.cardinality == 3000
        assert (grid.gds_map["protein_interactions"].relation.cardinality
                == 4700)

    def test_sequences_have_equal_length(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=20,
                                     interactions_cardinality=10,
                                     sequence_length=32))
        lengths = {len(s) for s in grid.gds_map[
            "protein_sequences"].relation.column_values("sequence")}
        assert lengths == {32}

    def test_entropy_operation_registered(self):
        grid = DemoGrid()
        assert "EntropyAnalyser" in grid.operations
        operation = grid.operations["EntropyAnalyser"]
        assert operation.work_label == WS_LABEL
        assert grid.context.registry.has_operation("EntropyAnalyser")

    def test_same_seed_same_data(self):
        spec = DemoGridSpec(sequences_cardinality=15,
                            interactions_cardinality=10,
                            sequence_length=8, seed=42)
        first = DemoGrid(spec).gds_map["protein_sequences"].relation
        second = DemoGrid(spec).gds_map["protein_sequences"].relation
        assert [r.values for r in first] == [r.values for r in second]

    def test_different_seed_different_data(self):
        base = DemoGridSpec(sequences_cardinality=15,
                            interactions_cardinality=10, sequence_length=8)
        import dataclasses
        other = dataclasses.replace(base, seed=7)
        first = DemoGrid(base).gds_map["protein_sequences"].relation
        second = DemoGrid(other).gds_map["protein_sequences"].relation
        assert [r.values for r in first] != [r.values for r in second]


class TestScenarios:
    def test_perturb_ws_cost_targets_first_machines(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=10,
                                     interactions_cardinality=10,
                                     sequence_length=8,
                                     compute_machines=3))
        perturb_ws_cost(grid, 10.0, machines=2)
        for index, expect in ((0, True), (1, True), (2, False)):
            machine = grid.context.machine(compute_machine_name(index))
            has = any(isinstance(p, CostFactor)
                      for p in machine.perturbations)
            assert has is expect

    def test_perturb_join_sleep_uses_probe_label(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=10,
                                     interactions_cardinality=10,
                                     sequence_length=8))
        perturb_join_sleep(grid, 10.0)
        machine = grid.context.machine("compute-1")
        perturbation = machine.perturbations[0]
        assert isinstance(perturbation, SleepInjection)
        assert perturbation.target == JOIN_LABEL

    def test_varying_perturbation_mean_stability(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=10,
                                     interactions_cardinality=10,
                                     sequence_length=8))
        perturb_ws_cost_varying(grid, 20.0, 40.0)
        perturbation = grid.context.machine("compute-1").perturbations[0]
        assert perturbation.mean == 30.0
        assert perturbation.target == WS_LABEL

    def test_transient_load_is_time_bounded(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=10,
                                     interactions_cardinality=10,
                                     sequence_length=8))
        perturb_transient_load(grid, factor=2.0, start_ms=100.0,
                               duration_ms=50.0)
        perturbation = grid.context.machine("compute-1").perturbations[0]
        assert not perturbation.matches(WS_LABEL, 99.0)
        assert perturbation.matches(WS_LABEL, 120.0)
        assert not perturbation.matches(WS_LABEL, 151.0)


class TestEntropyAnalyser:
    def test_uniform_sequence_has_zero_entropy(self):
        assert shannon_entropy("AAAA") == 0.0

    def test_two_symbol_uniform_is_one_bit(self):
        assert shannon_entropy("ABAB") == pytest.approx(1.0)

    def test_empty_sequence(self):
        assert shannon_entropy("") == 0.0

    def test_entropy_bounded_by_log_alphabet(self):
        import math
        value = shannon_entropy("ACDEFGHIKL" * 10)
        assert value <= math.log2(20) + 1e-9

    def test_queries_are_the_papers(self):
        assert "EntropyAnalyser" in Q1
        assert "protein_sequences" in Q1
        assert "ORF1" in Q2 and "protein_interactions" in Q2


class TestGridRunConvenience:
    def test_run_returns_query_result(self):
        grid = DemoGrid(DemoGridSpec(sequences_cardinality=20,
                                     interactions_cardinality=10,
                                     sequence_length=8))
        result = grid.run(Q1, AdaptivityConfig.disabled())
        assert len(result.rows) == 20
        assert result.response_time_ms > 0
