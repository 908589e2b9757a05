"""Lazy machine instantiation: build on first placement, never sooner.

The fleet-scale contract: a lazily-registered machine costs nothing
until something actually lands on it — placement, fault injection or
an explicit lookup — and whenever it *is* built, the result is
bit-identical to eager construction because every machine's RNG
stream is derived from its name, not from build order.
"""

import dataclasses

import pytest

from repro.config import SchedulerConfig
from repro.errors import PlanningError
from repro.workloads import DemoGrid, DemoGridSpec, Q1

SPEC = DemoGridSpec(compute_machines=6,
                    sequences_cardinality=60, interactions_cardinality=90,
                    sequence_length=12, lazy_machines=True)


def lazy_grid(**changes):
    return DemoGrid(dataclasses.replace(SPEC, **changes))


class TestRegistration:
    def test_construction_builds_no_compute_machines(self):
        grid = lazy_grid()
        registry = grid.context.registry
        assert not any(registry.is_materialized(name)
                       for name in grid.compute_machines)
        # The coordinator and data host are always eager: services
        # deploy onto them during grid construction.
        assert registry.is_materialized("coordinator")
        assert registry.is_materialized("data-host")

    def test_peek_does_not_materialize(self):
        registry = lazy_grid().context.registry
        assert registry.peek("compute-4") is None
        assert not registry.is_materialized("compute-4")
        with pytest.raises(PlanningError):
            registry.peek("nonesuch")

    def test_lookup_materializes_once(self):
        registry = lazy_grid().context.registry
        machine = registry.machine("compute-4")
        assert machine.name == "compute-4"
        assert registry.machine("compute-4") is machine
        assert registry.is_materialized("compute-4")

    def test_duplicate_names_rejected_across_lazy_and_eager(self):
        grid = lazy_grid()
        with pytest.raises(PlanningError):
            grid.context.add_machine("compute-1")
        with pytest.raises(PlanningError):
            grid.context.add_machine("coordinator", lazy=True)


class TestNeverPlacedMachines:
    def test_services_on_is_an_empty_noop(self):
        grid = lazy_grid()
        assert grid.context.services_on("compute-5") == []
        assert not grid.context.registry.is_materialized("compute-5")

    def test_fault_injection_materializes_the_victim(self):
        grid = lazy_grid()
        victims = grid.context.crash_machine("compute-5")
        assert victims == []
        registry = grid.context.registry
        assert registry.is_materialized("compute-5")
        assert registry.machine("compute-5").is_crashed
        assert not registry.is_materialized("compute-6")

    def test_placement_materializes_only_the_placed_machines(self):
        grid = lazy_grid()
        result = grid.run(Q1, degree=2)
        assert result.rows
        registry = grid.context.registry
        assert registry.is_materialized("compute-1")
        assert registry.is_materialized("compute-2")
        for name in ("compute-3", "compute-4", "compute-5", "compute-6"):
            assert not registry.is_materialized(name)


class TestDeterminism:
    def test_lazy_equals_eager_run(self):
        eager = DemoGrid(dataclasses.replace(SPEC, lazy_machines=False))
        lazy = lazy_grid()
        eager_result = eager.run(Q1, degree=2)
        lazy_result = lazy.run(Q1, degree=2)
        assert lazy_result.values() == eager_result.values()
        assert (lazy_result.response_time_ms
                == eager_result.response_time_ms)
        assert (lazy.context.env.events_scheduled
                == eager.context.env.events_scheduled)

    def test_materialization_order_does_not_change_the_run(self):
        # Machine RNG streams are name-derived, so pre-building the
        # fleet back to front leaves the subsequent query untouched.
        plain = lazy_grid()
        scrambled = lazy_grid()
        for i in range(6, 0, -1):
            scrambled.context.registry.machine(f"compute-{i}")
        plain_result = plain.run(Q1, degree=2)
        scrambled_result = scrambled.run(Q1, degree=2)
        assert scrambled_result.values() == plain_result.values()
        assert (scrambled_result.response_time_ms
                == plain_result.response_time_ms)


class TestSchedulerMetrics:
    def test_gauges_follow_materialization(self):
        grid = lazy_grid()
        scheduler = grid.scheduler(SchedulerConfig(max_concurrent=2))
        metrics = grid.context.metrics
        before = {entry["labels"].get("machine")
                  for entry in metrics.snapshot()
                  if entry.get("name") == "sched_capacity_pressure"}
        assert not before & set(grid.compute_machines)
        scheduler.submit(Q1, degree=2)
        scheduler.drain()
        after = {entry["labels"].get("machine")
                 for entry in metrics.snapshot()
                 if entry.get("name") == "sched_capacity_pressure"}
        assert {"compute-1", "compute-2"} <= after
        assert "compute-6" not in after
