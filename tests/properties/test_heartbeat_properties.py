"""Property tests: heartbeats, one timer per deployment and as data.

The GQESs of one deployment — all of a query's, or one recovery
replacement — are created at one instant, so their heartbeats fall
due together and :func:`repro.dqp.gqes.heartbeats` sends them
all from one timer (decision 38).  :class:`ReferenceHeartbeats` is the
design it replaced, one timer loop per GQES started as the GQES is
created.  Run beside each other under the same faults, the two must be
indistinguishable: every heartbeat sent at the same place among the
other events, the same copies on the wire arriving at the same times,
the same ``chaos:link`` draws, and — the point of the change — one
queued timer per tick per deployment instead of one per GQES.

A heartbeat's arrival is data in the failover's ledger, not a queued
delivery (decision 39).  :func:`event_path` is the delivery it
replaced — ``Network.send``, the GDQS mailbox, the last-heard time
written as the mailbox routes the heartbeat — and the ledger must be
indistinguishable from it: the same last-heard value at every read of
the failover wheel, the same suspect, quarantine, recovery and failure
decisions, the same ``chaos:link`` state and ``Network`` counters, and
the same final clock, with one queued event fewer per copy landed.
"""

import dataclasses
import sys
import types

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, MachineCrash, MachineFreeze
from repro.config import (
    AdaptivityConfig,
    CostModel,
    EngineConfig,
    FaultToleranceConfig,
)
from repro.dqp.deployment import QueryRuntime
from repro.dqp.failover import HEARTBEAT
from repro.dqp.gdqs import GDQS, QueryHandle
from repro.dqp.gqes import GQES, heartbeats
from repro.errors import QueryFailedError
from repro.grid import GridContext
from repro.net import NetworkConfig
from repro.sim.environment import Process
from repro.sim.events import Timeout
from repro.workloads import DemoGrid, DemoGridSpec, Q1

slow_settings = settings(max_examples=25, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


class ReferenceHeartbeats:
    """One heartbeat loop per GQES: the timer each GQES used to own.

    :meth:`spawn` is called right after the GQES is created, as its
    constructor used to; :attr:`timers` records ``(deployment, tick)``
    for every timer a loop queues, ``deployment`` being any key that
    tells the deployments apart.
    """

    def __init__(self) -> None:
        self.timers: list[tuple[object, float]] = []

    def spawn(self, gqes: GQES, interval_ms: float, deployment,
              beat) -> None:
        gqes.env.process(self._loop(gqes, interval_ms, deployment, beat))

    def _loop(self, gqes, interval_ms, deployment, beat):
        while not gqes.crashed and not gqes.query_complete.triggered:
            beat(gqes)
            self.timers.append((deployment, gqes.env.now))
            yield gqes.env.timeout(interval_ms)


#: The two heartbeat designs' process bodies.
LOOPS = (heartbeats.__code__, ReferenceHeartbeats._loop.__code__)


def drives_a_heartbeat_loop(event) -> bool:
    """Whether ``event`` resumes a heartbeat process, shared or
    reference: the events the two designs queue differently."""
    return any(isinstance(getattr(callback, "__self__", None), Process)
               and callback.__self__._generator.gi_code in LOOPS
               for callback in event.callbacks)


def observe(context):
    """Record what either timer design may not change, and the shared
    timers.

    Returns three lists filled as the run goes.  ``sends`` holds each
    heartbeat put on the wire as ``(time, sender, place)``, where
    ``place`` counts the events dispatched before it other than those
    that drive a heartbeat process or fire with no callback: a send
    that moves among same-instant events moves in this list.  ``wire``
    holds ``(time, sender, arrivals)``: when each of its copies
    arrives.  ``timers`` holds the time of every ``Timeout`` queued
    with :func:`heartbeats` on the stack.
    """
    env, network = context.env, context.network
    sends, wire, timers, place = [], [], [], [0]
    dispatch, schedule = env._dispatch, env.schedule
    transmit = network.transmit

    def dispatching(event):
        if event.callbacks and not drives_a_heartbeat_loop(event):
            place[0] += 1
        dispatch(event)

    def scheduling(event, when, *rest):
        if type(event) is Timeout:
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is heartbeats.__code__:
                    timers.append(env.now)
                    break
                frame = frame.f_back
        schedule(event, when, *rest)

    def transmitting(message):
        arrivals = transmit(message)
        if message.subject == HEARTBEAT:
            sends.append((env.now, message.sender, place[0]))
            wire.append((env.now, message.sender, arrivals))
        return arrivals

    env._dispatch, env.schedule, network.transmit = (
        dispatching, scheduling, transmitting)
    return sends, wire, timers


MACHINES = ("m0", "m1", "m2", "m3", "spare")

# Times on a 50 ms grid collide with heartbeat ticks; the rest do not.
instants = st.one_of(st.integers(0, 60).map(lambda k: 50.0 * k),
                     st.floats(0.0, 3000.0))


@st.composite
def scenarios(draw):
    size = draw(st.integers(1, 4))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        interval_ms=draw(st.sampled_from([50.0, 100.0, 150.0, 200.0])),
        size=size,
        complete_at=draw(st.lists(st.none() | instants,
                                  min_size=size, max_size=size)),
        replacement_at=draw(st.none() | instants),
        drop=draw(st.sampled_from([0.0, 0.1, 0.5])),
        crashes=draw(st.dictionaries(
            st.sampled_from(MACHINES), instants, max_size=3)),
        freezes=draw(st.dictionaries(
            st.sampled_from(MACHINES + ("gdqs-host",)),
            st.tuples(instants, st.floats(1.0, 800.0)), max_size=3)))


def run_deployments(scenario, reference: ReferenceHeartbeats | None):
    """Deploy ``size`` GQESs at time 0 and, optionally, one replacement
    on the spare later; heartbeat with ``reference`` or, when None,
    with the shared timer.  Returns the sends, the wire, the
    ``chaos:link`` stream state and the shared timers' tick times."""
    context = GridContext(seed=scenario["seed"])
    for name in MACHINES + ("gdqs-host",):
        context.add_machine(name)
    context.install_chaos(ChaosConfig.lossy(
        drop_probability=scenario["drop"],
        freezes=tuple(MachineFreeze(machine, at, duration)
                      for machine, (at, duration)
                      in scenario["freezes"].items()),
        crashes=tuple(MachineCrash(machine, at)
                      for machine, at in scenario["crashes"].items())))
    env = context.env
    gdqs = GDQS(context, "gdqs-host", {}, {}, fault_tolerance=(
        FaultToleranceConfig(enabled=True)))
    beat = gdqs.failover.beat
    sends, wire, shared_timers = observe(context)
    interval = scenario["interval_ms"]

    def deploy(machines, deployment):
        created = []
        for machine in machines:
            gqes = GQES(context, "q", machine, EngineConfig(), CostModel())
            created.append(gqes)
            if reference is not None:
                reference.spawn(gqes, interval, deployment, beat)
        if reference is None:
            env.process(heartbeats(created, interval, beat))
        return created

    def complete_later(gqes, at):
        yield env.timeout(at)
        gqes.query_complete.succeed(None)

    def replace_later(at):
        yield env.timeout(at)
        deploy(["spare"], 1)

    first = deploy(MACHINES[:scenario["size"]], 0)
    for gqes, at in zip(first, scenario["complete_at"]):
        if at is not None:
            env.process(complete_later(gqes, at))
    if scenario["replacement_at"] is not None:
        env.process(replace_later(scenario["replacement_at"]))
    env.run(until=4000.0)
    return (sends, wire, context.random.stream("chaos:link").getstate(),
            shared_timers)


@given(scenario=scenarios())
@slow_settings
def test_shared_timer_is_indistinguishable_from_one_loop_per_gqes(
        scenario):
    reference = ReferenceHeartbeats()
    ref_sends, ref_arrivals, ref_link_state, no_timers = run_deployments(
        scenario, reference)
    sends, arrivals, link_state, timers = run_deployments(scenario, None)
    assert no_timers == []
    assert sends == ref_sends
    assert arrivals == ref_arrivals
    assert link_state == ref_link_state
    # Exactly one queued timer per tick per deployment.
    assert sorted(timers) == sorted(
        tick for _deployment, tick in set(reference.timers))


SPEC = DemoGridSpec(sequences_cardinality=120, interactions_cardinality=150,
                    sequence_length=16, spare_machines=1)
FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=150.0,
                          failure_timeout_ms=500.0)


def run_query(monkeypatch, fail_at, freeze, drop, seed, per_gqes):
    """Q1 on the demo grid with heartbeats from the shared timer or,
    with ``per_gqes``, from :class:`ReferenceHeartbeats` hooked into
    the real deployment path (recovery replacements included)."""
    reference = ReferenceHeartbeats()
    if per_gqes:
        add_gqes = QueryRuntime.add_gqes

        def add_gqes_with_loop(runtime, machine_name):
            add_gqes(runtime, machine_name)
            # A deployment is the set of GQESs created at one instant.
            reference.spawn(runtime.gqes_by_machine[machine_name],
                            runtime.fault_tolerance.heartbeat_interval_ms,
                            runtime.context.env.now, runtime.beat)

        monkeypatch.setattr(QueryRuntime, "add_gqes", add_gqes_with_loop)
        monkeypatch.setattr(QueryRuntime, "start_heartbeats",
                            lambda runtime, created: None)
    try:
        grid = DemoGrid(
            dataclasses.replace(SPEC, seed=seed),
            fault_tolerance=FT,
            chaos=ChaosConfig.lossy(
                drop_probability=drop,
                freezes=((MachineFreeze("compute-1", *freeze),)
                         if freeze is not None else ())))
        reads = record_reads(grid.processor.gdqs.failover)
        sends, wire, shared_timers = observe(grid.context)
        if fail_at is not None:
            grid.fail_machine_at("compute-2", at_ms=fail_at)
        try:
            result = grid.run(Q1, AdaptivityConfig.disabled())
            outcome = (result.response_time_ms, sorted(result.values()),
                       result.stats.machines_recovered)
        except QueryFailedError as exc:
            # Lost heartbeats may condemn a live machine: a failure
            # must then be the same failure.
            outcome = (exc.failure.cause, exc.failure.failed_machine,
                       exc.failure.elapsed_ms)
    finally:
        monkeypatch.undo()
    return dict(
        sends=sends,
        wire=wire,
        reads=reads,
        link=grid.context.random.stream("chaos:link").getstate(),
        outcome=outcome,
        timers=sorted(shared_timers) if not per_gqes else sorted(
            tick for _deployment, tick in set(reference.timers)))


@given(fail_at=st.none() | st.floats(50.0, 900.0),
       freeze=st.none() | st.tuples(st.floats(0.0, 800.0),
                                    st.floats(50.0, 400.0)),
       drop=st.sampled_from([0.0, 0.05, 0.2]),
       seed=st.integers(0, 3))
# Two runs that recover compute-2 onto the spare: a replacement
# deployment with its own timer.
@example(fail_at=300.0, freeze=None, drop=0.0, seed=0)
@example(fail_at=600.0, freeze=(200.0, 300.0), drop=0.05, seed=1)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_deployed_query_heartbeats_as_with_one_loop_per_gqes(
        monkeypatch, fail_at, freeze, drop, seed):
    expected = run_query(monkeypatch, fail_at, freeze, drop, seed, True)
    got = run_query(monkeypatch, fail_at, freeze, drop, seed, False)
    assert got["timers"] == expected["timers"]
    assert got == expected


# -- the ledger against the event path (decision 39) -----------------------


def event_path(failover):
    """Deliver every heartbeat as the parent did: ``Network.send``
    queues each copy's delivery, the GDQS mailbox routes it (holding
    it while the host is frozen), and the last-heard time is written
    then (``GDQS.on_notification``)."""
    failover._transmit = failover.gdqs.network.send


def record_reads(failover):
    """Every last-heard value the wheel reads, as ``(time, GQES,
    value)``."""
    reads = []
    last_heard = failover._last_heard

    def reading(watch, name):
        value = last_heard(watch, name)
        reads.append((failover.env.now, name, value))
        return value

    failover._last_heard = reading
    return reads


class Fragment:
    """A compute instance as the wheel sees it: quarantined by index."""

    def __init__(self, index):
        self.subplan_id = "compute"
        self.instance_index = index
        self.consumers = {}
        self.halted = False

    def wake(self):
        pass


class Responder:
    """Records the quarantines and reintegrations the wheel spawns."""

    crashed = False

    def __init__(self, decisions, env):
        self.decisions, self.env = decisions, env

    def set_quarantined(self, subplan_id, index, quarantined):
        return iter(())

    def spawn(self, body, name):
        self.decisions.append((self.env.now, name))


#: What the drawn GDQS host and GQES machines are called.
HOSTS = ("gdqs-host", "m0", "m1", "m2", "m3", "spare")


@st.composite
def ledger_scenarios(draw):
    interval = draw(st.sampled_from([50.0, 100.0, 200.0]))
    size = draw(st.integers(1, 4))
    # On a 50 ms grid a fault or the end of a freeze falls on a tick.
    on_ticks = st.one_of(st.integers(0, 50).map(lambda k: 50.0 * k),
                         st.floats(0.0, 2500.0))
    suspect = draw(st.none() | st.just(1.5 * interval))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        interval_ms=interval,
        # A 768-byte heartbeat takes 1 ms on the wire, so a latency of
        # k intervals less 1 ms lands it on a later tick exactly.
        latency_ms=draw(st.sampled_from(
            [0.5, interval - 1.0, 2 * interval - 1.0])),
        loopback_ms=draw(st.sampled_from([0.01, 0.0, interval])),
        machines=draw(st.lists(st.sampled_from(HOSTS[:5]), min_size=size,
                               max_size=size, unique=True)),
        wheel_first=draw(st.booleans()),
        suspect_ms=suspect,
        failure_ms=draw(st.sampled_from([2.5, 4.0])) * interval,
        max_recoveries=draw(st.sampled_from([None, 0, 1])),
        drop=draw(st.sampled_from([0.0, 0.2])),
        duplicate=draw(st.sampled_from([0.0, 0.3])),
        delay=draw(st.sampled_from([0.0, 0.3])),
        delay_ms=draw(st.sampled_from([7.0, interval])),
        crashes=draw(st.dictionaries(st.sampled_from(HOSTS), on_ticks,
                                     max_size=2)),
        freezes=draw(st.dictionaries(
            st.sampled_from(HOSTS),
            st.tuples(on_ticks, st.sampled_from([50.0, 150.0, 400.0])
                      | st.floats(1.0, 800.0)), max_size=3)),
        complete_at=draw(st.lists(st.none() | on_ticks, min_size=size,
                                  max_size=size)),
        replacement_at=draw(st.none() | on_ticks))


def run_failover(scenario, by_event):
    """One watched query's GQESs heartbeating to a real GDQS, its wheel
    grading them; with ``by_event`` every heartbeat takes the event
    path.  The query's engine is a stand-in: compute instances to
    quarantine, a recovery that takes 3 ms, an abort that ends it."""
    interval = scenario["interval_ms"]
    context = GridContext(seed=scenario["seed"], network_config=(
        NetworkConfig(latency_ms=scenario["latency_ms"],
                      bandwidth_bytes_per_ms=768.0,
                      loopback_delay_ms=scenario["loopback_ms"])))
    for name in HOSTS:
        context.add_machine(name)
    context.install_chaos(ChaosConfig.lossy(
        drop_probability=scenario["drop"],
        duplicate_probability=scenario["duplicate"],
        delay_probability=scenario["delay"],
        delay_ms=scenario["delay_ms"],
        freezes=tuple(MachineFreeze(machine, at, duration)
                      for machine, (at, duration)
                      in scenario["freezes"].items()),
        crashes=tuple(MachineCrash(machine, at)
                      for machine, at in scenario["crashes"].items())))
    env = context.env
    gdqs = GDQS(context, "gdqs-host", {}, {}, fault_tolerance=(
        FaultToleranceConfig(
            enabled=True, heartbeat_interval_ms=interval,
            suspect_timeout_ms=scenario["suspect_ms"],
            failure_timeout_ms=scenario["failure_ms"],
            max_recoveries=scenario["max_recoveries"])))
    failover = gdqs.failover
    if by_event:
        event_path(failover)
    reads = record_reads(failover)
    decisions = []
    landed = [0]
    land = context.network.land

    def landing(message, arrivals):
        landed[0] += len(arrivals)
        land(message, arrivals)

    context.network.land = landing
    handle = QueryHandle("q1", env.event())
    handle.runtime = runtime = types.SimpleNamespace(
        gqess=[], failures_handled=set(), recoveries=0,
        responder=(Responder(decisions, env)
                   if scenario["suspect_ms"] is not None else None),
        plan=types.SimpleNamespace(
            compute=types.SimpleNamespace(subplan_id="compute")))
    runtime.all_gqes = lambda: list(runtime.gqess)

    def recover(_runtime, failed):
        decisions.append((env.now, "recover", failed.name))
        yield env.timeout(3.0)
        runtime.recoveries += 1
        return True

    def abort(_handle, cause, machine):
        decisions.append((env.now, "abort", cause, machine))
        handle.done.succeed(None)
        return True

    failover.recover, gdqs.abort = recover, abort

    def deploy(machines):
        created = []
        for machine in machines:
            gqes = GQES(context, "q1", machine, EngineConfig(), CostModel())
            gqes.fragments[machine] = Fragment(len(runtime.gqess))
            runtime.gqess.append(gqes)
            created.append(gqes)
        env.process(heartbeats(created, interval, failover.beat))
        return created

    def later(at, action):
        yield env.timeout(at)
        action()

    if scenario["wheel_first"]:
        failover.watch(handle)
        first = deploy(scenario["machines"])
    else:
        first = deploy(scenario["machines"])
        failover.watch(handle)
    for gqes, at in zip(first, scenario["complete_at"]):
        if at is not None:
            env.process(later(at, lambda gqes=gqes: (
                gqes.query_complete.triggered
                or gqes.query_complete.succeed(None))))
    if scenario["replacement_at"] is not None:
        env.process(later(scenario["replacement_at"],
                          lambda: deploy(["spare"])))

    def end():
        if not handle.done.triggered:
            handle.done.succeed(None)
        for gqes in runtime.gqess:
            if not gqes.query_complete.triggered:
                gqes.query_complete.succeed(None)

    env.process(later(3000.0, end))
    env.run()
    network = context.network
    return dict(
        reads=reads,
        decisions=decisions,
        trace=[(event.timestamp, event.description, event.data)
               for event in context.tracer.events
               if event.category == "failure"],
        link=context.random.stream("chaos:link").getstate(),
        counters=(network.messages_delivered, network.messages_dropped,
                  network.bytes_delivered),
        now=env.now,
        watched=dict(failover.watched),
    ), env.events_scheduled, landed[0]


@given(scenario=ledger_scenarios())
# The wheel's tick dispatched just before the heartbeats at the same
# instant, and each heartbeat arriving at the next tick: read before
# its delivery would have been dispatched, so it does not count yet.
@example(scenario=dict(
    seed=0, interval_ms=100.0, latency_ms=99.0, loopback_ms=0.01,
    machines=["m0", "m1"], wheel_first=True, suspect_ms=None,
    failure_ms=250.0, max_recoveries=None, drop=0.0, duplicate=0.0,
    delay=0.0, delay_ms=7.0, crashes={}, freezes={},
    complete_at=[None, None], replacement_at=None))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ledger_is_indistinguishable_from_the_event_path(scenario):
    expected, reference_events, none_landed = run_failover(scenario, True)
    got, events, landed = run_failover(scenario, False)
    assert none_landed == 0
    assert got["reads"] == expected["reads"]
    assert got == expected
    # A copy landed in the ledger is one delivery event not queued.
    assert reference_events - events == landed


#: Where a Q1 run that has not drained is cut off.  A freeze that
#: outlasts the failure timeout can stall a query for good on either
#: path (ROADMAP item 2 (e)), and a failed GDQS leaves retries running;
#: the two must then agree up to here.
HORIZON_MS = 30_000.0


def run_q1(seed, freeze, failure, faults, by_event):
    """Q1 on the demo grid under ``faults`` (drop, duplicate, delay
    probabilities), a ``(machine, at, duration)`` freeze and a
    ``(machine, at)`` failure of a machine's services; with
    ``by_event`` every heartbeat takes the event path."""
    drop, duplicate, delay = faults
    grid = DemoGrid(
        dataclasses.replace(SPEC, seed=seed),
        fault_tolerance=dataclasses.replace(FT, suspect_timeout_ms=300.0),
        chaos=ChaosConfig.lossy(
            drop_probability=drop, duplicate_probability=duplicate,
            delay_probability=delay, delay_ms=30.0,
            freezes=(MachineFreeze(*freeze),) if freeze else ()))
    context = grid.context
    env, network = context.env, context.network
    failover = grid.processor.gdqs.failover
    if by_event:
        event_path(failover)
    reads = record_reads(failover)
    if failure is not None:
        grid.fail_machine_at(*failure)
    handle = grid.processor.gdqs.submit(Q1, AdaptivityConfig())
    while env.peek() <= HORIZON_MS:
        env.step()
    outcome = counters = None
    if handle.done.processed:
        outcome = (handle.failure if handle.failure is not None else (
            handle.result.response_time_ms, sorted(handle.result.values()),
            handle.result.stats.machines_recovered,
            handle.result.stats.clones_quarantined))
    if env.peek() == float("inf"):
        env.run()  # the drained clock
        # Landed copies are counted when sent: compare once drained.
        counters = (network.messages_delivered, network.messages_dropped,
                    network.bytes_delivered)
    return dict(
        reads=reads,
        outcome=outcome,
        trace=[(event.timestamp, event.category, event.description,
                event.data) for event in context.tracer.events],
        link=context.random.stream("chaos:link").getstate(),
        counters=counters,
        now=env.now)


@given(seed=st.integers(0, 3),
       freeze=st.none() | st.tuples(
           st.sampled_from(["coordinator", "compute-1", "compute-2"]),
           st.floats(0.0, 900.0), st.floats(50.0, 800.0)),
       failure=st.none() | st.tuples(
           st.sampled_from(["compute-2", "coordinator"]),
           st.floats(50.0, 900.0)),
       faults=st.sampled_from([(0.0, 0.0, 0.0), (0.1, 0.1, 0.1),
                               (0.0, 0.3, 0.3)]))
# The GDQS host stalls past the suspect timeout: heartbeats wait in
# its mailbox, and it quarantines clones whose beats it has not read.
@example(seed=0, freeze=("coordinator", 450.0, 400.0), failure=None,
         faults=(0.0, 0.0, 0.0))
# A compute freeze past the failure timeout that never finishes.
@example(seed=0, freeze=("compute-1", 69.4, 572.1), failure=None,
         faults=(0.0, 0.0, 0.0))
# The GDQS host's services fail while the 300 ms beats are in flight:
# those are dropped, not heard.
@example(seed=1, freeze=None, failure=("coordinator", 300.3),
         faults=(0.0, 0.0, 0.0))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_deployed_query_decides_as_on_the_event_path(seed, freeze, failure,
                                                     faults):
    expected = run_q1(seed, freeze, failure, faults, True)
    got = run_q1(seed, freeze, failure, faults, False)
    assert got["reads"] == expected["reads"]
    assert got == expected
