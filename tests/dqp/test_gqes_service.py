"""Service-level tests for the GQES (routing, ops, quiescence)."""

import pytest

from repro.config import AdaptivityConfig, CostModel, EngineConfig
from repro.dqp.gqes import GQES
from repro.engine.control import DataBuffer, QueryComplete
from repro.errors import ServiceError
from repro.grid import GridContext
from repro.net.message import KIND_CONTROL, KIND_DATA
from repro.services.base import GridService
from repro.workloads import DemoGrid, DemoGridSpec, Q1

SMALL = DemoGridSpec(sequences_cardinality=100, interactions_cardinality=120,
                     sequence_length=16)


def make_gqes():
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")
    gqes = GQES(context, "qx", "m1", EngineConfig(), CostModel())
    peer = GridService(context, "peer", "m2")
    return context, gqes, peer


class TestGqesRouting:
    def test_data_for_unknown_channel_raises(self):
        context, gqes, peer = make_gqes()
        peer.send(gqes.name, KIND_DATA,
                  DataBuffer("ghost:0:0", "xp:ghost:0", [], 0))
        with pytest.raises(ServiceError, match="unknown channel"):
            context.env.run()

    def test_unknown_control_payload_raises(self):
        context, gqes, peer = make_gqes()
        peer.send(gqes.name, KIND_CONTROL, object())
        with pytest.raises(ServiceError, match="unknown control"):
            context.env.run()

    def test_query_complete_is_idempotent(self):
        context, gqes, peer = make_gqes()
        peer.send(gqes.name, KIND_CONTROL, QueryComplete("qx"))
        peer.send(gqes.name, KIND_CONTROL, QueryComplete("qx"))
        context.env.run()
        assert gqes.query_complete.triggered

    def test_fresh_gqes_is_quiescent(self):
        _context, gqes, _peer = make_gqes()
        assert gqes.is_quiescent()

    def test_update_for_unknown_producer_is_reported(self):
        context, gqes, peer = make_gqes()

        def caller(env):
            result = yield from peer.call(
                gqes.name, "update_distribution",
                {"update": None, "producer_id": "nope", "phase": "replay"})
            return result

        process = context.env.process(caller(context.env))
        context.env.run(until=process)
        assert process.value == "unknown-producer"

    def test_update_after_query_complete_is_rejected(self):
        context, gqes, peer = make_gqes()
        gqes.query_complete.succeed(None)

        def caller(env):
            result = yield from peer.call(
                gqes.name, "update_distribution",
                {"update": None, "producer_id": "x", "phase": "replay"})
            return result

        process = context.env.process(caller(context.env))
        context.env.run(until=process)
        assert process.value == "query-complete"

    def test_progress_for_unknown_subplan_is_empty(self):
        context, gqes, peer = make_gqes()

        def caller(env):
            reports = yield from peer.call(
                gqes.name, "progress", {"subplan_id": "ghost"})
            processed = yield from peer.call(
                gqes.name, "processed", {"subplan_id": "ghost"})
            return reports, processed

        process = context.env.process(caller(context.env))
        context.env.run(until=process)
        assert process.value == ([], 0)


class TestGqesDuringQuery:
    def deploy(self):
        grid = DemoGrid(SMALL)
        handle = grid.processor.gdqs.submit(Q1, AdaptivityConfig.disabled())
        return grid, handle

    def test_quiescent_only_after_completion(self):
        grid, handle = self.deploy()
        grid.context.env.run(until=500.0)
        runtime = handle.runtime
        assert not all(g.is_quiescent() for g in runtime.all_gqes())
        grid.context.env.run(until=handle.done)
        grid.context.env.run()
        assert all(g.is_quiescent() for g in runtime.all_gqes())

    def test_arrived_data_is_never_invisible_to_quiescence(self, monkeypatch):
        """From arrival to ``consumer.deliver`` a data message is either
        in the mailbox or counted as an active ingest, at every kernel
        step — the window ``_orchestrate``'s double-check relies on.
        The finished query's GQESs are kept live (not retired) so the
        message reaches one after its query, from a quiescent start."""
        monkeypatch.setattr(GQES, "retire", lambda self: None)
        grid, handle = self.deploy()
        runtime = handle.runtime
        env = grid.context.env
        network = grid.context.network
        env.run(until=handle.done)
        env.run()
        gqes, channel_key, consumer = next(
            (service, key, consumer)
            for service in runtime.all_gqes()
            for key, (consumer, _fragment) in service._consumers.items())
        sender = next(service for service in runtime.all_gqes()
                      if service.machine is not gqes.machine)
        assert consumer.aborted and gqes.is_quiescent()
        delivered = []
        monkeypatch.setattr(consumer, "deliver",
                            lambda *args: delivered.append(args))

        arrivals = network.messages_delivered
        sender.send(gqes.name, KIND_DATA,
                    DataBuffer(channel_key, "xp:late", [], 0))
        while network.messages_delivered == arrivals:
            env.step()
        steps = 0
        while not delivered:
            assert not gqes.is_quiescent(), f"invisible after step {steps}"
            env.step()
            steps += 1
        assert steps > 0
        env.run()
        assert gqes.is_quiescent()

    def test_duplicate_fragment_deployment_rejected(self):
        grid, handle = self.deploy()
        runtime = handle.runtime
        fragment = runtime.compute_fragments[0]
        gqes = runtime.gqes_by_machine[fragment.ctx.machine.name]
        with pytest.raises(ServiceError, match="already"):
            gqes.deploy(fragment)
        grid.context.env.run(until=handle.done)

    def test_crashed_gqes_counts_quiescent(self):
        grid, handle = self.deploy()
        grid.context.env.run(until=300.0)
        runtime = handle.runtime
        victim = runtime.gqes_by_machine["compute-2"]
        victim.crash()
        assert victim.is_quiescent()
