"""Exact queued-event budgets per primitive.

Every queued event is a point in simulated time at which something
happens — a CPU service completion, the end of a link transmission, a
delivery, a thaw — so each primitive has an exact
``Environment.events_scheduled`` cost.  These pins fail when a relay
event (a hop to the next kernel step at the same instant) comes back.
"""

import pytest

from repro.config import AdaptivityConfig, CostModel, EngineConfig
from repro.core import MonitoringEventDetector
from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.dqp.gqes import GQES
from repro.engine.control import DataBuffer
from repro.engine.distribution import WeightedRoundRobin
from repro.engine.evaluator import Fragment
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators import (
    ConsumerRef,
    ExchangeConsumer,
    ExchangeProducer,
    HashJoin,
    OperationCall,
    Project,
)
from repro.engine.operators.base import EvalContext
from repro.grid import GridContext
from repro.net import KIND_DATA, Message, Network, NetworkConfig
from repro.net.link import Link
from repro.policy import create_policy
from repro.services.base import GridService
from repro.services.ws import WebServiceOperation
from repro.sim import Cpu, Environment
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)


def queued(env, action):
    """Events queued by ``action()`` and everything it leads to."""
    before = env.events_scheduled
    action()
    env.run()
    return env.events_scheduled - before


class TestCpu:
    def test_one_task_on_an_idle_cpu(self):
        env = Environment()
        cpu = Cpu(env)
        assert queued(env, lambda: cpu.execute(3.0)) == 1

    @pytest.mark.parametrize("count", [2, 7])
    def test_tasks_submitted_at_one_instant(self, count):
        env = Environment()
        cpu = Cpu(env)
        assert queued(env, lambda: [cpu.execute(1.0)
                                    for _ in range(count)]) == count

    def test_zero_work_task(self):
        env = Environment()
        cpu = Cpu(env)
        assert queued(env, lambda: cpu.execute(0.0)) == 1

    def test_task_submitted_during_a_freeze(self):
        env = Environment()
        cpu = Cpu(env)
        cpu.freeze_until(5.0)
        # The thaw timeout plus the task itself.
        assert queued(env, lambda: cpu.execute(1.0)) == 2
        assert env.now == 6.0


class TestLink:
    @pytest.mark.parametrize("latency", [0.0, 2.0])
    def test_one_transfer(self, latency):
        env = Environment()
        link = Link(env, latency_ms=latency, bandwidth_bytes_per_ms=100.0)
        # End of transmission, then delivery.
        assert queued(env, lambda: link.transfer(500)) == 2

    def test_back_to_back_transfers(self):
        env = Environment()
        link = Link(env, latency_ms=2.0, bandwidth_bytes_per_ms=100.0)
        assert queued(env, lambda: [link.transfer(100)
                                    for _ in range(5)]) == 10


class TestNetwork:
    def make(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        context.add_machine("m2")
        sender = GridService(context, "sender", "m1")
        GridService(context, "local", "m1")
        GridService(context, "remote", "m2")
        context.env.run()
        return context, sender

    def test_remote_send_to_a_service(self):
        context, sender = self.make()
        # End of transmission, then the delivery that also routes it.
        assert queued(context.env, lambda: sender.notify(
            "remote", "topic", None)) == 2

    def test_loopback_send_to_a_service(self):
        context, sender = self.make()
        assert queued(context.env, lambda: sender.notify(
            "local", "topic", None)) == 1

    def test_send_to_a_bare_mailbox(self):
        env = Environment()
        network = Network(env, NetworkConfig())
        network.register("a", "m1")
        mailbox = network.register("b", "m2")
        assert queued(env, lambda: network.send(Message(
            sender="a", recipient="b", kind=KIND_DATA, payload=None))) == 2
        assert len(mailbox) == 1


def test_gqes_data_ingest_is_one_cpu_task():
    context = GridContext(seed=0)
    context.add_machine("m1")
    gqes = GQES(context, "qx", "m1", EngineConfig(), CostModel())
    delivered = []

    class Consumer:
        def deliver(self, *args):
            delivered.append(args)

    class Fragment:
        def wake(self):
            pass

    gqes._consumers["ch"] = (Consumer(), Fragment())
    context.env.run()
    message = Message(sender="peer", recipient=gqes.name, kind=KIND_DATA,
                      payload=DataBuffer("ch", "xp", [], 4))
    assert queued(context.env, lambda: gqes.on_data(message)) == 1
    assert delivered == [("xp", "peer", [])]


@pytest.mark.parametrize("count", [1, 5])
def test_late_build_drain_of_one_queued_block(count):
    """A join absorbing one replayed N-row build block: the block is
    taken synchronously (no ``StoreGet``) and paid as one CPU
    completion, however many rows it holds."""
    context = GridContext(seed=0)
    context.add_machine("m1")
    ctx = EvalContext(
        grid=context, machine=context.machine("m1"),
        metrics=SubplanMetrics("join:0"), cost=CostModel(),
        engine_config=EngineConfig(), monitor=None)
    build = ExchangeConsumer(ctx, "join:0:0", ["xp"], defer_acks=True)
    join = HashJoin(ctx, build, build, 0, 0)

    def drain():
        context.env.process(join._drain_late_build())

    idle = queued(context.env, drain)  # the process's own start and end
    build.deliver("xp", "peer", [Batch(
        [Row((f"k{i}",), f"b#{i}") for i in range(count)])])
    assert queued(context.env, drain) - idle == 1
    assert join.state_size == count
    assert ctx.owed_work == 0.0


def compute_fragment_events(morsels, monitoring, rotate):
    """Events queued by a Q1 compute fragment (consumer -> op-call ->
    project -> producer, one remote consumer downstream) that is handed
    ``morsels`` blocks of exactly one morsel each and runs until it
    parks on its empty queue."""
    size = 8
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")

    class Downstream(GridService):
        def on_data(self, message):
            pass

    Downstream(context, "downstream", "m2")
    cost = CostModel()
    config = AdaptivityConfig()
    detector = MonitoringEventDetector(
        context, "m1", config, cost,
        policy=create_policy(config)) if monitoring else None
    ctx = EvalContext(
        grid=context, machine=context.machine("m1"),
        metrics=SubplanMetrics("compute:0"), cost=cost,
        engine_config=EngineConfig(
            batch_size=size, buffer_size=size if rotate else 10_000,
            checkpoint_interval=10_000),
        monitor=detector)
    consumer = ExchangeConsumer(ctx, "compute:0:0", ["xp"])
    chain = Project(ctx, OperationCall(
        ctx, consumer, WebServiceOperation("Length", len, 5.0), 0), [0, 1])
    producer = ExchangeProducer(
        ctx, chain, "xp:compute:0", "root",
        [ConsumerRef("downstream", "root:0:0", "root:0", "m2")],
        WeightedRoundRobin(1), row_bytes=32, estimated_total=size * morsels)
    fragment = Fragment(ctx, "compute", 0, producer,
                        {"compute:0:0": consumer}, [producer],
                        m1_interval=size)
    fragment.attach_service(GridService(context, "gqes", "m1"))
    consumer.deliver("xp", "peer", [
        Batch([Row((f"seq{m}-{i}",), f"t#{m}-{i}") for i in range(size)])
        for m in range(morsels)])
    context.env.process(fragment.run(context.env.event()))
    context.env.run()
    assert producer.routed_total == size * morsels
    assert ctx.owed_work == 0.0 and ctx.owed_delay == 0.0
    return context.env.events_scheduled


@pytest.mark.parametrize("monitoring, rotate, budget", [
    (False, False, 1),   # the morsel
    (True, False, 2),    # + the M1 hand-over
    (False, True, 4),    # + serialize, end of transmission, delivery
    (True, True, 6),     # + the M2 hand-over
], ids=["plain", "monitored", "rotating", "monitored-rotating"])
def test_compute_morsel_budget(monitoring, rotate, budget):
    """One more morsel through a Q1 compute fragment is one more CPU
    completion, whatever the length of the operator chain; monitoring
    adds one per hand-over and a rotated-out buffer its own send."""
    assert (compute_fragment_events(3, monitoring, rotate)
            - compute_fragment_events(2, monitoring, rotate)) == budget


BATCH_SIZES = (1, 8, 32, 128)

#: Q1 under the 10x WS perturbation, static, per batch size:
#: (queued events, simulated response ms).
HEADLINE = {1: (10099, 71014.903), 8: (2419, 71014.903),
            32: (1609, 71014.903), 128: (1459, 71014.903)}

#: Q2 with the 12 ms join sleep, per (policy, batch size); under A1 +
#: R1 one adaptation replays 2,811 build rows as late blocks.
JOIN = {("static", 1): (24401, 54127.193),
        ("static", 8): (5445, 54247.087),
        ("static", 32): (3500, 54492.555),
        ("static", 128): (3190, 54498.186),
        ("A1-R1", 32): (6632, 36586.284)}
JOIN_POLICIES = {"static": AdaptivityConfig.disabled(),
                 "A1-R1": AdaptivityConfig(assessment="A1", response="R1")}


def run_demo(query, perturb, batch_size, adaptivity):
    grid = DemoGrid(DemoGridSpec(),
                    engine_config=EngineConfig(batch_size=batch_size))
    perturb(grid)
    return grid, grid.run(query, adaptivity)


def assert_budget(grid, result, budget):
    events, response_ms = budget
    assert grid.context.env.events_scheduled == events
    assert result.response_time_ms == pytest.approx(response_ms, abs=1e-3)


@pytest.mark.parametrize("batch_size", BATCH_SIZES,
                         ids=[f"bs{size}" for size in BATCH_SIZES])
def test_headline_query_budget(batch_size):
    grid, result = run_demo(Q1, lambda grid: perturb_ws_cost(grid, 10.0),
                            batch_size, AdaptivityConfig.disabled())
    assert len(result.rows) == 3000
    assert_budget(grid, result, HEADLINE[batch_size])


@pytest.mark.parametrize("policy, batch_size", list(JOIN),
                         ids=[f"static-bs{size}" for size in BATCH_SIZES]
                         + ["A1-R1"])
def test_join_query_budget(policy, batch_size):
    grid, result = run_demo(Q2, lambda grid: perturb_join_sleep(grid, 12.0),
                            batch_size, JOIN_POLICIES[policy])
    assert len(result.rows) == 4700
    assert_budget(grid, result, JOIN[policy, batch_size])


def test_morsels_cut_events_not_simulated_time():
    """What the pins above must keep saying when they are recaptured:
    every larger morsel queues strictly fewer events, bs 32 at least 5x
    fewer than bs 1 on the headline query, and the simulated response
    stays within 2 % of bs 1 — batching changes how contiguously the
    simulated costs are scheduled, never the costs."""
    static_join = {size: JOIN["static", size] for size in BATCH_SIZES}
    for table in (HEADLINE, static_join):
        events = [table[size][0] for size in BATCH_SIZES]
        assert all(more > fewer for more, fewer in zip(events, events[1:]))
        reference_ms = table[1][1]
        for _events, response_ms in table.values():
            assert abs(response_ms - reference_ms) <= 0.02 * reference_ms
    assert HEADLINE[1][0] >= 5 * HEADLINE[32][0]
