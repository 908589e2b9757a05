"""Tests for the incremental two-tier placement index.

The contract under test: the index-backed
``FairShare.placement_order`` must equal a full stable sort of the
crash-filtered compute pool by committed shares on every single-site
grid (``least_loaded_order`` below is that sort, kept here as the
test oracle), while multi-site grids order sites by mean committed
shares before machines.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanningError
from repro.sched import FairShare
from repro.sched.fleet import FleetIndex, LoadIndex
from repro.workloads import DemoGrid, DemoGridSpec

SPEC = DemoGridSpec(compute_machines=6,
                    sequences_cardinality=60, interactions_cardinality=90,
                    sequence_length=12)


def least_loaded_order(fair, candidates):
    """Oracle: candidates sorted by committed shares, stably."""
    indexed = list(enumerate(candidates))
    indexed.sort(key=lambda pair: (fair.load(pair[1]), pair[0]))
    return [name for _index, name in indexed]


@dataclasses.dataclass
class StubSession:
    session_id: str
    machines: tuple


class TestLoadIndex:
    def test_orders_by_load_then_registration(self):
        index = LoadIndex()
        for name in ("a", "b", "c"):
            index.add(name)
        assert list(index.ordered()) == ["a", "b", "c"]
        index.update("a", 2.0)
        index.update("b", 1.0)
        assert list(index.ordered()) == ["c", "b", "a"]
        index.update("c", 1.0)
        # Equal loads keep registration order: b registered before c.
        assert list(index.ordered()) == ["b", "c", "a"]

    def test_update_unknown_is_noop(self):
        index = LoadIndex()
        index.add("a")
        index.update("ghost", 5.0)
        assert list(index.ordered()) == ["a"]
        assert index.load("ghost") is None

    def test_duplicate_add_rejected(self):
        index = LoadIndex()
        index.add("a")
        with pytest.raises(ValueError):
            index.add("a")

    def test_discard_removes_and_forgets(self):
        index = LoadIndex()
        index.add("a")
        index.add("b", 3.0)
        index.discard("a")
        assert "a" not in index
        assert list(index.ordered()) == ["b"]
        index.discard("a")  # idempotent

    def test_rejoining_member_keeps_original_tie_break(self):
        index = LoadIndex()
        index.add("a")
        index.add("b")
        index.discard("a")
        index.add("a")
        # "a" re-enters with its original registration index, so the
        # stable tie-break at equal load is unchanged by the round trip.
        assert list(index.ordered()) == ["a", "b"]


class TestFleetIndexSingleSite:
    def test_matches_full_sort_under_admit_release(self):
        grid = DemoGrid(SPEC)
        fair = FairShare(grid.context.registry)
        assert isinstance(fair.index, FleetIndex)
        pool = grid.compute_machines
        sessions = [
            StubSession("s1", ("compute-1", "compute-2", "data-host")),
            StubSession("s2", ("compute-2", "compute-3")),
            StubSession("s3", ("compute-1", "compute-2", "compute-5")),
        ]
        for session in sessions:
            fair.admit(session)
            assert fair.placement_order() == least_loaded_order(fair, pool)
        fair.release(sessions[1])
        assert fair.placement_order() == least_loaded_order(fair, pool)

    def test_limit_truncates_the_same_prefix(self):
        grid = DemoGrid(SPEC)
        fair = FairShare(grid.context.registry)
        fair.admit(StubSession("s1", ("compute-1", "compute-2")))
        full = fair.placement_order()
        assert fair.placement_order(limit=3) == full[:3]

    def test_crashed_machine_dropped_lazily(self):
        grid = DemoGrid(SPEC)
        fair = FairShare(grid.context.registry)
        grid.context.crash_machine("compute-3")
        order = fair.placement_order()
        assert "compute-3" not in order
        assert len(order) == len(grid.compute_machines) - 1
        # The drop is sticky: the index forgot the machine entirely.
        assert "compute-3" not in fair.index

    def test_ignores_non_compute_occupants(self):
        grid = DemoGrid(SPEC)
        fair = FairShare(grid.context.registry)
        fair.admit(StubSession("s1", ("data-host", "coordinator")))
        # Shares are charged on the occupied machines...
        assert fair.load("data-host") == 1.0
        # ...but placement order only ever lists compute machines.
        assert fair.placement_order() == list(grid.compute_machines)


@st.composite
def admit_release_scripts(draw):
    """A sequence of admit/release steps over six compute machines."""
    steps = []
    live: list[int] = []
    count = draw(st.integers(min_value=1, max_value=12))
    for step in range(count):
        if live and draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(live)))
            live.remove(victim)
            steps.append(("release", victim, ()))
        else:
            machines = tuple(sorted(draw(st.sets(
                st.sampled_from([f"compute-{i}" for i in range(1, 7)]),
                min_size=1, max_size=4))))
            live.append(step)
            steps.append(("admit", step, machines))
    return steps


class TestReferenceEquivalence:
    @given(script=admit_release_scripts())
    @settings(max_examples=60, deadline=None)
    def test_placement_order_equals_full_sort(self, script):
        grid = DemoGrid(SPEC)
        fair = FairShare(grid.context.registry)
        pool = grid.compute_machines
        sessions = {}
        for action, key, machines in script:
            if action == "admit":
                sessions[key] = StubSession(f"s{key}", machines)
                fair.admit(sessions[key])
            else:
                fair.release(sessions.pop(key))
            assert fair.placement_order() == least_loaded_order(fair, pool)


class TestFleetIndexMultiSite:
    def make_grid(self):
        return DemoGrid(dataclasses.replace(SPEC, sites=3))

    def test_sites_partition_the_pool(self):
        grid = self.make_grid()
        registry = grid.context.registry
        # Non-compute machines (coordinator, data host) stay in the
        # implicit default site; the compute pool splits into blocks.
        assert set(registry.sites()) == {"default", "site-1", "site-2",
                                         "site-3"}
        assert [registry.site_of(name) for name in (
            "compute-1", "compute-2", "compute-3")] == [
            "site-1", "site-1", "site-2"]
        assert registry.site_of("compute-5") == "site-3"
        with pytest.raises(PlanningError):
            registry.site_of("nonesuch")

    def test_least_loaded_site_leads(self):
        grid = self.make_grid()
        fair = FairShare(grid.context.registry)
        # Load site-1 heavily and site-2 lightly; site-3 stays idle.
        fair.admit(StubSession("s1", ("compute-1", "compute-2")))
        fair.admit(StubSession("s2", ("compute-1", "compute-3")))
        order = fair.placement_order()
        assert order[:2] == ["compute-5", "compute-6"]     # idle site-3
        assert order[2:4] == ["compute-4", "compute-3"]    # site-2
        assert order[4:] == ["compute-2", "compute-1"]     # site-1

    def test_crash_updates_site_aggregate(self):
        grid = self.make_grid()
        fair = FairShare(grid.context.registry)
        fair.admit(StubSession("s1", ("compute-1",)))
        grid.context.crash_machine("compute-1")
        fair.placement_order()
        # The crashed member's load left the aggregate with it: site-1
        # is idle again and leads on its registration order.
        assert fair.placement_order()[0] == "compute-2"
