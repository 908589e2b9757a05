"""Tests for service crashes, call timeouts, GDS and WS services."""

import pytest

from repro.errors import ServiceError
from repro.data import Column, Relation, Schema
from repro.grid import GridContext
from repro.services import (
    GridDataService,
    GridService,
    WebServiceOperation,
    make_entropy_analyser,
)


class EchoService(GridService):
    def op_echo(self, payload, sender):
        yield self.env.timeout(1.0)
        return payload


def make_context():
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")
    return context


class TestCrashSemantics:
    def test_crashed_service_stops_answering(self):
        context = make_context()
        caller = EchoService(context, "a", "m1")
        victim = EchoService(context, "b", "m2")
        victim.crash()

        def body(env):
            with pytest.raises(ServiceError, match="timed out"):
                yield from caller.call("b", "echo", "x", timeout_ms=50.0)
            return "done"

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        assert process.value == "done"

    def test_crash_is_idempotent(self):
        context = make_context()
        victim = EchoService(context, "b", "m2")
        victim.crash()
        victim.crash()
        assert victim.crashed

    def test_crashed_service_sends_nothing(self):
        context = make_context()
        sender = EchoService(context, "a", "m1")
        receiver = EchoService(context, "b", "m2")
        sender.crash()
        sender.notify("b", "topic", "payload")
        context.env.run()
        assert context.network.messages_delivered == 0

    def test_call_timeout_not_triggered_by_fast_reply(self):
        context = make_context()
        caller = EchoService(context, "a", "m1")
        EchoService(context, "b", "m2")

        def body(env):
            value = yield from caller.call("b", "echo", "fast",
                                           timeout_ms=10_000.0)
            return value

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        assert process.value == "fast"

    def test_fail_machine_hits_only_that_machine(self):
        context = make_context()
        a = EchoService(context, "a", "m1")
        b = EchoService(context, "b", "m2")
        victims = context.fail_machine("m2")
        assert victims == [b]
        assert not a.crashed
        assert context.services_on("m2") == []


class TestGridDataService:
    def make_gds(self, context):
        schema = Schema([Column("k", "int")])
        relation = Relation.from_values("nums", schema,
                                        [(i,) for i in range(20)])
        return GridDataService(context, "m1", relation,
                               access_work_per_tuple=1.5)

    def test_registers_table_metadata(self):
        context = make_context()
        self.make_gds(context)
        metadata = context.registry.table("nums")
        assert metadata.cardinality == 20
        assert metadata.machine_name == "m1"

    def test_read_window(self):
        context = make_context()
        gds = self.make_gds(context)
        rows = gds.read_block(5, 3).rows
        assert [r.values[0] for r in rows] == [5, 6, 7]
        assert gds.read_block(19, 10)[0].values[0] == 19
        assert len(gds.read_block(50, 5)) == 0


class TestWebServiceOperation:
    def test_invoke_computes_real_value(self):
        operation = WebServiceOperation("Double", lambda x: x * 2, 1.0)
        assert operation.invoke(21) == 42
        assert operation.work_label == "ws:Double"

    def test_register_advertises_in_registry(self):
        context = make_context()
        operation = make_entropy_analyser()
        operation.register(context.registry, ["m1", "m2"])
        assert context.registry.has_operation("EntropyAnalyser")
