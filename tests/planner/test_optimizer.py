"""Unit tests for the scheduling optimizer.

The compute-machine pick is one walk in rank order that stops once it
holds ``degree`` machines of the strictest tier;
``two_stage_pick`` below is the bounded-walk-then-full-pool pick it
replaced, kept here as the test oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Column, Schema
from repro.errors import PlanningError
from repro.grid import GridContext, OperationMetadata, TableMetadata
from repro.planner import (
    POLICY_HASH,
    POLICY_WRR,
    build_logical_plan,
    optimize,
    parse,
)
from repro.planner.optimizer import _initial_weights, _pick_compute_machines

SCHEMAS = {
    "protein_sequences": Schema([Column("ORF", "str", 16),
                                 Column("sequence", "str", 64)]),
    "protein_interactions": Schema([Column("ORF1", "str", 16),
                                    Column("ORF2", "str", 16)]),
}
CARDINALITIES = {"protein_sequences": 3000, "protein_interactions": 4700}


def make_registry(compute=2, speeds=None):
    context = GridContext(seed=0)
    context.add_machine("coordinator", compute=False)
    context.add_machine("data-host", compute=False)
    speeds = speeds or [1.0] * compute
    for index in range(compute):
        context.add_machine(f"compute-{index + 1}", speed=speeds[index])
    for table, cardinality in CARDINALITIES.items():
        context.registry.add_table(TableMetadata(
            table, f"gds:{table}", "data-host", cardinality,
            SCHEMAS[table].width_bytes))
    context.registry.add_operation(OperationMetadata(
        "EntropyAnalyser", ["compute-1", "compute-2"], 5.0))
    return context.registry


def physical_for(text, registry, degree=None):
    logical = build_logical_plan(parse(text), SCHEMAS, CARDINALITIES)
    return optimize(logical, registry, "coordinator", degree=degree)


class TestQ1Plan:
    QUERY = "select EntropyAnalyser(p.sequence) from protein_sequences p"

    def test_scan_placed_on_data_host(self):
        plan = physical_for(self.QUERY, make_registry())
        assert len(plan.scans) == 1
        assert plan.scans[0].machine_name == "data-host"
        assert plan.scans[0].estimated_total == 3000

    def test_compute_partitioned_across_compute_machines(self):
        plan = physical_for(self.QUERY, make_registry())
        assert plan.compute.machine_names == ("compute-1", "compute-2")
        assert plan.compute.policy_kind == POLICY_WRR
        assert plan.compute.join_keys is None
        assert plan.compute.applies == (("EntropyAnalyser", 1),)

    def test_uniform_weights_for_homogeneous_machines(self):
        plan = physical_for(self.QUERY, make_registry())
        assert plan.compute.initial_weights == (0.5, 0.5)

    def test_weights_proportional_to_machine_speed(self):
        plan = physical_for(self.QUERY,
                            make_registry(speeds=[3.0, 1.0]))
        assert plan.compute.initial_weights == (0.75, 0.25)

    def test_degree_caps_parallelism(self):
        plan = physical_for(self.QUERY, make_registry(compute=3), degree=2)
        assert plan.partitioning_degree == 2

    def test_degree_exceeding_machines_rejected(self):
        with pytest.raises(PlanningError):
            physical_for(self.QUERY, make_registry(), degree=5)

    def test_unknown_operation_rejected(self):
        registry = make_registry()
        with pytest.raises(PlanningError):
            physical_for("select Mystery(p.sequence) "
                         "from protein_sequences p", registry)

    def test_machines_used_lists_all_distinct(self):
        plan = physical_for(self.QUERY, make_registry())
        assert plan.machines_used() == ["data-host", "compute-1",
                                        "compute-2", "coordinator"]


class TestQ2Plan:
    QUERY = ("select i.ORF2 from protein_sequences p, "
             "protein_interactions i where i.ORF1 = p.ORF")

    def test_two_scans_with_ports(self):
        plan = physical_for(self.QUERY, make_registry())
        ports = {scan.table_name: scan.target_port for scan in plan.scans}
        assert ports == {"protein_sequences": 0,
                         "protein_interactions": 1}

    def test_hash_policy_with_key_positions(self):
        plan = physical_for(self.QUERY, make_registry())
        assert plan.compute.policy_kind == POLICY_HASH
        assert plan.compute.join_keys == (0, 0)
        for scan in plan.scans:
            assert scan.key_position == 0

    def test_row_bytes_follow_schemas(self):
        plan = physical_for(self.QUERY, make_registry())
        by_table = {scan.table_name: scan.row_bytes for scan in plan.scans}
        assert by_table["protein_sequences"] == 80
        assert by_table["protein_interactions"] == 32
        assert plan.compute.output_row_bytes == 16

    def test_query_ids_unique(self):
        registry = make_registry()
        first = physical_for(self.QUERY, registry)
        second = physical_for(self.QUERY, registry)
        assert first.query_id != second.query_id


def two_stage_pick(registry, data_hosts, coordinator, degree,
                   machine_order=None, exclude=()):
    """Oracle: a bounded walk over the listed machines, then — when it
    cannot collect ``degree`` machines that pass every filter — the
    whole crash-filtered pool with its two emptiness fallbacks, sorted
    by rank.  ``machine_order`` is deduplicated by first occurrence
    (``FairShare.placement_order`` never repeats a name)."""
    if machine_order is not None:
        machine_order = list(dict.fromkeys(machine_order))
    if degree is not None and degree >= 1:
        walk = (machine_order if machine_order is not None
                else registry.compute_machines())
        chosen = []
        for name in walk:
            if not registry.is_compute(name):
                continue
            machine = registry.peek(name)
            if machine is not None and machine.is_crashed:
                continue
            if (name in exclude or name in data_hosts
                    or name == coordinator):
                continue
            chosen.append(name)
            if len(chosen) == degree:
                return chosen
    candidates = [name for name in registry.compute_machines()
                  if not registry.machine(name).is_crashed]
    if exclude:
        spared = [name for name in candidates if name not in exclude]
        if spared:
            candidates = spared
    preferred = [name for name in candidates
                 if name not in data_hosts and name != coordinator]
    chosen = preferred or candidates
    if machine_order is not None:
        rank = {name: position
                for position, name in enumerate(machine_order)}
        chosen = sorted(chosen,
                        key=lambda name: rank.get(name, len(rank)))
    if degree is not None:
        if degree < 1:
            raise PlanningError(f"degree must be >= 1: {degree}")
        if degree > len(chosen):
            raise PlanningError(
                f"degree {degree} exceeds available machines {len(chosen)}")
        chosen = chosen[:degree]
    if not chosen:
        raise PlanningError("no compute machines available")
    return chosen


@st.composite
def pick_cases(draw):
    """A registry of 1-6 compute machines (some lazy, some crashed)
    and one placement request against it."""
    names = [f"compute-{index}"
             for index in range(1, draw(st.integers(1, 6)) + 1)]

    def subset(pool):
        return draw(st.sets(st.sampled_from(pool)))

    return {
        "names": names,
        "lazy": subset(names),
        "crashed": subset(names),
        "data_hosts": subset(names + ["data-host"]),
        "coordinator": draw(st.sampled_from(["coordinator"] + names)),
        "machine_order": draw(st.none() | st.lists(
            st.sampled_from(names + ["data-host"]), max_size=8)),
        "exclude": frozenset(subset(names)),
        "degree": draw(st.none() | st.integers(0, len(names) + 1)),
    }


def placed(pick, case):
    """``pick`` on a fresh registry, plus the plan's weight lookup (what
    ``optimize`` does next); returns (machines or error, machines
    built)."""
    context = GridContext(seed=0)
    context.add_machine("coordinator", compute=False)
    context.add_machine("data-host", compute=False)
    for name in case["names"]:
        context.add_machine(name, lazy=name in case["lazy"])
    registry = context.registry
    for name in case["crashed"]:
        registry.machine(name).crash()

    def built():
        return {machine.name
                for machine in registry.materialized_machines()}

    before = built()
    try:
        picked = pick(registry, case["data_hosts"], case["coordinator"],
                      case["degree"], case["machine_order"], case["exclude"])
    except PlanningError as error:
        picked = str(error)
    else:
        _initial_weights(registry, picked)
    return picked, built() - before


@given(case=pick_cases())
@settings(max_examples=300, deadline=None)
def test_folded_pick_equals_the_two_stage_oracle(case):
    expected, oracle_built = placed(two_stage_pick, case)
    picked, built = placed(_pick_compute_machines, case)
    assert picked == expected
    # Only what is placed is built, and never more than the oracle.
    placed_lazy = set(picked) & case["lazy"] if isinstance(
        picked, list) else set()
    assert built == placed_lazy
    assert built <= oracle_built
