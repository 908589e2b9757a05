"""Shrunk fuzzer repro: row-conservation violation(s).

Auto-generated by ``repro.scengen`` (grammar v1, scenario
f3069968e00a); the scenario dict below is the shrinker's minimal
reproduction.  Regenerate with the shrinker rather than hand-editing.
Its policy is ``paper-A1R2``: the ``chaos-aware`` policy it was
shrunk under was deleted, and the scenario holds its invariants under
``paper-A1R2`` too.
"""

from repro.scengen.grammar import Scenario
from repro.scengen.oracles import check_all
from repro.scengen.runner import probe_scenario

SCENARIO = {'batch_size': 1,
 'chaos': {'delay': 0.0,
           'delay_ms': 0.0,
           'drop': 0.0,
           'duplicate': 0.0,
           'freezes': [{'at_ms': 900.0,
                        'duration_ms': 1500.0,
                        'machine_index': 1}],
           'ws_failure': 0.0},
 'compute_machines': 2,
 'fault_tolerance': True,
 'grammar_version': 1,
 'interactions': 300,
 'pacing': 'paper',
 'perturbations': [],
 'policy': 'paper-A1R2',
 'query': 'Q2',
 'rules': ['query:Q2',
           'size:large',
           'world:2',
           'machines:3',
           'batch:1',
           'policy:paper-A1R2',
           'pacing:paper',
           'perturbs:one',
           'perturb:join-sleep',
           'chaos:freeze'],
 'seed': 15347874801519122936,
 'sequences': 200,
 'world_seed': 0}


def test_shrunk_scenario_f3069968e00a_holds_invariants():
    outcome = probe_scenario(Scenario.from_json(SCENARIO))
    violations = [v.to_json() for v in check_all(outcome)]
    assert violations == []
