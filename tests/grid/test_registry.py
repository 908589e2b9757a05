"""Unit tests for the resource registry."""

import pytest

from repro.errors import PlanningError
from repro.grid import (
    GridContext,
    Machine,
    OperationMetadata,
    ResourceRegistry,
    TableMetadata,
)
from repro.sim import Environment


def make_machine(name):
    return Machine(Environment(), name)


class TestMachines:
    def test_compute_and_spare_classification(self):
        registry = ResourceRegistry()
        registry.add_machine(make_machine("c1"), compute=True)
        registry.add_machine(make_machine("d1"), compute=False)
        registry.add_machine(make_machine("s1"), compute=False, spare=True)
        assert registry.compute_machines() == ["c1"]
        assert registry.spare_machines() == ["s1"]
        assert ({m.name for m in registry.materialized_machines()}
                == {"c1", "d1", "s1"})

    def test_duplicate_machine_rejected(self):
        registry = ResourceRegistry()
        registry.add_machine(make_machine("m"))
        with pytest.raises(PlanningError):
            registry.add_machine(make_machine("m"))

    def test_unknown_machine_rejected(self):
        with pytest.raises(PlanningError):
            ResourceRegistry().machine("ghost")


class TestTablesAndOperations:
    def test_table_catalog(self):
        registry = ResourceRegistry()
        registry.add_table(TableMetadata("t", "gds:t", "d1", 100, 64))
        assert registry.table("t").cardinality == 100
        with pytest.raises(PlanningError):
            registry.add_table(TableMetadata("t", "gds:t2", "d1", 1, 1))
        with pytest.raises(PlanningError):
            registry.table("u")

    def test_operation_catalog(self):
        registry = ResourceRegistry()
        registry.add_operation(OperationMetadata("F", ["m1"], 2.0))
        assert registry.has_operation("F")
        assert not registry.has_operation("G")
        with pytest.raises(PlanningError):
            registry.add_operation(OperationMetadata("F", ["m2"], 1.0))


class TestContextFailureInjection:
    def test_services_on_excludes_crashed(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        from repro.services import GridService
        service = GridService(context, "svc", "m1")
        assert context.services_on("m1") == [service]
        service.crash()
        assert context.services_on("m1") == []

    def test_fail_unknown_machine_is_noop(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        assert context.fail_machine("ghost") == []
