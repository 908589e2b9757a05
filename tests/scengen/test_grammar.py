"""Generator determinism and the scenario JSON round trip."""

import random

import pytest

from repro.scengen.grammar import (
    GRAMMAR_VERSION,
    Scenario,
    ScenarioGrammar,
    derive_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_independent_axes(self):
        seeds = {derive_seed(master, index, version)
                 for master in (0, 1)
                 for index in (0, 1, 2)
                 for version in (1, 2)}
        assert len(seeds) == 12


class TestGeneration:
    def test_same_inputs_byte_identical_scenario(self):
        """(version, master seed, index, weights) fully determine a
        scenario — across independent grammar instances."""
        for index in range(20):
            first = ScenarioGrammar().generate(0, index)
            second = ScenarioGrammar().generate(0, index)
            assert first.canonical_json() == second.canonical_json()
            assert first.scenario_id == second.scenario_id

    def test_index_independence(self):
        """Scenario ``i`` does not depend on how many came before."""
        grammar = ScenarioGrammar()
        alone = grammar.generate(0, 5)
        after_others = None
        other = ScenarioGrammar()
        for index in range(6):
            after_others = other.generate(0, index)
        assert alone.canonical_json() == after_others.canonical_json()

    def test_weights_steer_choices(self):
        """Zero-weighting an axis value removes it from the corpus."""
        grammar = ScenarioGrammar({"query:Q1": 0.0})
        queries = {grammar.generate(0, index).query
                   for index in range(20)}
        assert queries == {"Q2"}

    def test_version_stamped(self):
        scenario = ScenarioGrammar().generate(0, 0)
        assert scenario.grammar_version == GRAMMAR_VERSION

    def test_v4_record_with_columnar_key_loads(self):
        """v2-v4 corpus records carry the data-plane axis v5 dropped;
        they load with the key discarded, keeping committed corpora
        and shrunk repros valid."""
        scenario = ScenarioGrammar().generate(0, 0)
        record = dict(scenario.to_json(), grammar_version=4,
                      columnar=False)
        assert (Scenario.from_json(record)
                == scenario.replace(grammar_version=4))

    def test_freeze_chaos_implies_fault_tolerance(self):
        found_freeze = False
        grammar = ScenarioGrammar({"chaos:freeze": 50.0,
                                   "chaos:none": 0.0})
        for index in range(20):
            scenario = grammar.generate(0, index)
            if scenario.chaos is not None and scenario.chaos.freezes:
                found_freeze = True
                assert scenario.fault_tolerance
        assert found_freeze


class TestJsonRoundTrip:
    @pytest.mark.parametrize("index", range(10))
    def test_round_trip_identity(self, index):
        scenario = ScenarioGrammar().generate(0, index)
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.scenario_id == scenario.scenario_id

    def test_canonical_json_is_sorted_and_stable(self):
        scenario = ScenarioGrammar().generate(0, 0)
        assert scenario.canonical_json() == scenario.canonical_json()
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.canonical_json() == scenario.canonical_json()


def test_pick_is_rng_stream_stable():
    """The weighted pick consumes exactly one draw per axis, so a
    weight change on one axis cannot shift later axes' draws."""
    grammar = ScenarioGrammar()
    rng = random.Random(1)
    chosen = []
    grammar._pick(rng, "query", (("Q1", "Q1"), ("Q2", "Q2")), chosen)
    state_after = rng.getstate()
    rng2 = random.Random(1)
    heavy = ScenarioGrammar({"query:Q2": 100.0})
    heavy._pick(rng2, "query", (("Q1", "Q1"), ("Q2", "Q2")), chosen)
    assert rng2.getstate() == state_after
