"""Exact queued-event budgets per primitive.

Every queued event is a point in simulated time at which something
happens — a CPU service completion, a delivery, a thaw — so each
primitive has an exact
``Environment.events_scheduled`` cost.  These pins fail when a relay
event (a hop to the next kernel step at the same instant) comes back.
"""

import pytest

from repro.chaos import ChaosConfig, FaultSchedule, MachineFreeze
from repro.config import (
    AdaptivityConfig,
    CostModel,
    EngineConfig,
    FaultToleranceConfig,
)
from repro.core import MonitoringEventDetector
from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.dqp import deployment
from repro.dqp.gdqs import GDQS
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
from repro.net.availability import Availability
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
        table = Availability()
        table.freeze(0.0, 5.0)
        cpu = Cpu(env, thaw=table.thaw)
        # The thaw timeout plus the task itself.
        assert queued(env, lambda: cpu.execute(1.0)) == 2
        assert env.now == 6.0


class TestLink:
    """A transfer occupies the link and queues its delivery."""

    def make(self, latency):
        env = Environment()
        network = Network(env, NetworkConfig(
            latency_ms=latency, bandwidth_bytes_per_ms=100.0))
        network.register("a", "m1")
        network.register("b", "m2")
        link = network.link_between("m1", "m2")

        def transfer(size_bytes):
            return network.deliver(
                Message(sender="a", recipient="b", kind=KIND_DATA,
                        payload=None, size_bytes=size_bytes),
                link.occupy(size_bytes) + link.latency_ms)

        return env, transfer

    @pytest.mark.parametrize("latency", [0.0, 2.0])
    def test_one_transfer(self, latency):
        env, transfer = self.make(latency)
        # The delivery, queued at its absolute time in the call.
        assert queued(env, lambda: transfer(500)) == 1

    def test_back_to_back_transfers(self):
        env, transfer = self.make(2.0)
        assert queued(env, lambda: [transfer(100)
                                    for _ in range(5)]) == 5


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
        # The delivery, which also routes it.
        assert queued(context.env, lambda: sender.notify(
            "remote", "topic", None)) == 1

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
            sender="a", recipient="b", kind=KIND_DATA, payload=None))) == 1
        assert len(mailbox) == 1


class TestHeartbeat:
    """A heartbeat's arrival is data in the GDQS failover's ledger
    (decision 39), unless it reaches the GDQS host while the host is
    frozen (decision 41)."""

    def make(self, chaos=None):
        context = GridContext(seed=0)
        context.add_machine("coordinator")
        context.add_machine("m1")
        context.install_chaos(chaos)
        gdqs = GDQS(context, "coordinator", {}, {}, fault_tolerance=(
            FaultToleranceConfig(enabled=True)))
        gqes = GQES(context, "qx", "m1", EngineConfig(), CostModel())
        context.env.run()
        return context, gdqs.failover, gqes

    def test_to_a_host_with_no_scheduled_fault(self):
        context, failover, gqes = self.make()
        assert queued(context.env, lambda: failover.beat(gqes)) == 0
        assert context.network.messages_delivered == 1

    def test_to_a_crashed_gdqs(self):
        context, failover, gqes = self.make()
        context.fail_machine("coordinator")
        # Dropped as the schedule says: the dead host hears nothing.
        assert queued(context.env, lambda: failover.beat(gqes)) == 0
        assert context.network.messages_dropped == 1

    def test_to_a_host_with_a_scheduled_freeze(self):
        context, failover, gqes = self.make(ChaosConfig(
            enabled=True, schedule=FaultSchedule(freezes=(
                MachineFreeze("coordinator", 1000.0, 50.0),))))
        context.env.run(until=2000.0)  # long thawed
        # A freeze long past routes nothing by event.
        assert queued(context.env, lambda: failover.beat(gqes)) == 0

    def test_to_a_frozen_host(self):
        context, failover, gqes = self.make(ChaosConfig(
            enabled=True, schedule=FaultSchedule(freezes=(
                MachineFreeze("coordinator", 1000.0, 50.0),))))
        context.env.run(until=1010.0)
        # Its delivery, and the thaw drain of the mailbox that holds it.
        assert queued(context.env, lambda: failover.beat(gqes)) == 2

    def test_from_a_frozen_host(self):
        context, failover, gqes = self.make(ChaosConfig(
            enabled=True, schedule=FaultSchedule(freezes=(
                MachineFreeze("m1", 1000.0, 50.0),))))
        context.env.run(until=1010.0)
        # The event at the thaw that puts it on the wire.
        assert queued(context.env, lambda: failover.beat(gqes)) == 1
        assert context.network.messages_delivered == 1


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
    build.deliver("xp", "peer", [Batch.from_rows(
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
        Batch.from_rows([Row((f"seq{m}-{i}",), f"t#{m}-{i}")
                         for i in range(size)])
        for m in range(morsels)])
    context.env.process(fragment.run(context.env.event()))
    context.env.run()
    assert producer.routed_total == size * morsels
    assert ctx.owed_work == 0.0 and ctx.owed_delay == 0.0
    return context.env.events_scheduled


@pytest.mark.parametrize("monitoring, rotate, budget", [
    (False, False, 1),   # the morsel
    (True, False, 2),    # + the M1 hand-over
    (False, True, 3),    # + serialize, delivery
    (True, True, 5),     # + the M2 hand-over
], ids=["plain", "monitored", "rotating", "monitored-rotating"])
def test_compute_morsel_budget(monitoring, rotate, budget):
    """One more morsel through a Q1 compute fragment is one more CPU
    completion, whatever the length of the operator chain; monitoring
    adds one per hand-over and a rotated-out buffer its own send."""
    assert (compute_fragment_events(3, monitoring, rotate)
            - compute_fragment_events(2, monitoring, rotate)) == budget


BATCH_SIZES = (1, 8, 32, 128)

#: Q1 under the 10x WS perturbation, static, per batch size:
#: (queued events, simulated response ms).  Each count is one lower
#: than before ``Environment.start`` (9845, 2165, 1355, 1205): the
#: GDQS's orchestration process, which nothing waits on, queues no
#: completion event.
HEADLINE = {1: (9844, 71014.903), 8: (2164, 71014.903),
            32: (1354, 71014.903), 128: (1204, 71014.903)}

#: Q2 with the 12 ms join sleep, per (policy, batch size); under A1 +
#: R1 one adaptation replays 2,811 build rows as late blocks.  One
#: event fewer each for the same reason (was 23947, 4991, 3046, 2736
#: and 5983).
JOIN = {("static", 1): (23946, 54127.193),
        ("static", 8): (4990, 54247.087),
        ("static", 32): (3045, 54492.555),
        ("static", 128): (2735, 54498.186),
        ("A1-R1", 32): (5982, 36586.284)}
JOIN_POLICIES = {"static": AdaptivityConfig.disabled(),
                 "A1-R1": AdaptivityConfig(assessment="A1", response="R1")}


#: The headline query at bs 32 under failure detection, no failure:
#: (queued events, simulated response ms, heartbeat ticks).  Its four
#: GQESs are one deployment, created at one instant, so each 500 ms
#: tick queues one timer, not four, and their heartbeats' arrivals go
#: to the failover's ledger, not the event queue.  Was 1645 events:
#: the orchestration, heartbeat and wheel processes are started with
#: ``Environment.start`` and queue no completion (-3).
FAULT_TOLERANT = (1642, 71014.903, 143)


def run_demo(query, perturb, batch_size, adaptivity, fault_tolerance=None):
    grid = DemoGrid(DemoGridSpec(),
                    engine_config=EngineConfig(batch_size=batch_size),
                    fault_tolerance=fault_tolerance)
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


def test_fault_tolerant_query_budget(monkeypatch):
    timers = []
    heartbeats = deployment.heartbeats

    def recording(gqess, interval_ms, beat):
        for timer in heartbeats(gqess, interval_ms, beat):
            timers.append((id(gqess), len(gqess), timer.env.now))
            yield timer

    monkeypatch.setattr(deployment, "heartbeats", recording)
    grid, result = run_demo(Q1, lambda grid: perturb_ws_cost(grid, 10.0),
                            32, AdaptivityConfig.disabled(),
                            FaultToleranceConfig(enabled=True))
    assert len(result.rows) == 3000
    events, response_ms, ticks = FAULT_TOLERANT
    assert_budget(grid, result, (events, response_ms))
    assert len(timers) == ticks
    # One deployment of four GQESs, one timer per 500 ms tick.
    assert {(key, size) for key, size, _ in timers} == {(timers[0][0], 4)}
    assert [now for *_, now in timers] == [500.0 * k for k in range(ticks)]


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
