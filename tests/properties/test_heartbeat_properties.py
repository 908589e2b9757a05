"""Property tests: heartbeats, one timer per deployment and as data.

The GQESs of one deployment — all of a query's, or one recovery
replacement — are created at one instant, so their heartbeats fall
due together and :func:`repro.dqp.gqes.heartbeats` sends them
all from one timer (decision 38).  The cadence is the contract: one
queued timer per tick per deployment while any of its GQESs is live,
and one beat per live GQES at each tick, sent at the tick, at the thaw
if its machine is frozen then, and not at all if it is down by then.
:class:`ReferenceHeartbeats` is the design it replaced, one timer loop
per GQES started as the GQES is created; on a deployed query the two
must still be indistinguishable.

A heartbeat's arrival is data in the failover's ledger, not a queued
delivery (decision 39), and a beat is heard when it lands (decision
44).  Each wheel read is checked against a log of the wire — every
heartbeat's arrivals and the GDQS host's availability: last heard is
the latest copy that landed by then, this instant included, or the
query's start; and every suspect, quarantine, recovery and abort
follows from the read's silence against the timeouts.  Where the order
of same-instant events decides (a held copy routed as a stall ends, a
GQES crashing on a tick), either outcome is accepted: that order is
not a contract.
"""

import collections
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
from repro.dqp.gdqs import CAUSE_BUDGET, GDQS, QueryHandle
from repro.dqp.gqes import GQES, heartbeats
from repro.errors import QueryFailedError
from repro.grid import GridContext
from repro.net import NetworkConfig
from repro.services.base import CONTROL_MESSAGE_BYTES
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


def heartbeat_timers(env):
    """Every ``Timeout`` queued with :func:`heartbeats` on the stack, as
    ``(time, names)``: ``names`` are the GQESs that beat at that tick,
    the ones its loop found live."""
    timers = []
    schedule = env.schedule

    def scheduling(event, when, *rest):
        if type(event) is Timeout:
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is heartbeats.__code__:
                    timers.append((env.now, frozenset(
                        gqes.name for gqes in frame.f_locals["deployment"])))
                    break
                frame = frame.f_back
        schedule(event, when, *rest)

    env.schedule = scheduling
    return timers


def observe(context):
    """Record what either timer design may not change, and the shared
    timers.

    Returns three lists filled as the run goes.  ``sends`` holds each
    heartbeat put on the wire as ``(time, sender, place)``, where
    ``place`` counts the events dispatched before it other than those
    that drive a heartbeat process or fire with no callback: a send
    that moves among same-instant events moves in this list.  ``wire``
    holds ``(time, sender, arrivals)``: when each of its copies
    arrives.  ``timers`` holds the shared timers
    (:func:`heartbeat_timers`).
    """
    env, network = context.env, context.network
    sends, wire, place = [], [], [0]
    dispatch, transmit = env._dispatch, network.transmit
    timers = heartbeat_timers(env)

    def dispatching(event):
        if event.callbacks and not drives_a_heartbeat_loop(event):
            place[0] += 1
        dispatch(event)

    def transmitting(message):
        arrivals = transmit(message)
        if message.subject == HEARTBEAT:
            sends.append((env.now, message.sender, place[0]))
            wire.append((env.now, message.sender, arrivals))
        return arrivals

    env._dispatch, network.transmit = dispatching, transmitting
    return sends, wire, timers


MACHINES = ("m0", "m1", "m2", "m3", "spare")
#: Where a cadence run is cut off.
CADENCE_HORIZON_MS = 4000.0

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


def run_deployments(scenario):
    """Deploy ``size`` GQESs at time 0 and, optionally, one replacement
    on the spare later, each deployment heartbeating from its shared
    timer.  Returns the heartbeat sends as ``(time, sender)``, the
    timers (:func:`heartbeat_timers`), the deployments as ``(created,
    GQESs, completion instants)`` and the network."""
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
    env, network = context.env, context.network
    gdqs = GDQS(context, "gdqs-host", {}, {}, fault_tolerance=(
        FaultToleranceConfig(enabled=True)))
    beat = gdqs.failover.beat
    sends, timers = [], heartbeat_timers(env)
    transmit = network.transmit

    def transmitting(message):
        if message.subject == HEARTBEAT:
            sends.append((env.now, message.sender))
        return transmit(message)

    network.transmit = transmitting
    deployments = []

    def deploy(machines, complete_at):
        created = [GQES(context, "q", machine, EngineConfig(), CostModel())
                   for machine in machines]
        deployments.append((env.now, created, complete_at))
        env.process(heartbeats(created, scenario["interval_ms"], beat))
        return created

    def complete_later(gqes, at):
        yield env.timeout(at)
        gqes.query_complete.succeed(None)

    def replace_later(at):
        yield env.timeout(at)
        deploy(["spare"], [None])

    first = deploy(MACHINES[:scenario["size"]], scenario["complete_at"])
    for gqes, at in zip(first, scenario["complete_at"]):
        if at is not None:
            env.process(complete_later(gqes, at))
    if scenario["replacement_at"] is not None:
        env.process(replace_later(scenario["replacement_at"]))
    env.run(until=CADENCE_HORIZON_MS)
    return sends, timers, deployments, network


def beats_at(tick, created, crash, complete):
    """Whether a GQES created at ``created`` is live at ``tick``: until
    its machine crashes or its query completes.  None when the order of
    same-instant events decides: at that very instant, or, for a crash
    at its creation, for good (created just before the crash it is
    crashed; just after, it lives on, down and sending nothing)."""
    if crash is not None and crash == created:
        return None
    verdict = True
    for end in (crash, complete):
        if end is None or end < created or tick < end:
            continue
        if tick > end:
            return False
        verdict = None
    return verdict


@given(scenario=scenarios())
# m1's beat held since t = 0 leaves at the thaw, the instant of the
# next tick: same-instant sends in either order cross different links.
@example(scenario=dict(
    seed=0, interval_ms=50.0, size=2, complete_at=[None, None],
    replacement_at=None, drop=0.0, crashes={},
    freezes={"m0": (0.0, 1.0), "m1": (0.0, 50.0)}))
@slow_settings
def test_one_timer_per_tick_and_one_beat_per_live_gqes(scenario):
    """Each deployment queues one timer per tick while any of its GQESs
    is live, and each GQES live at a tick puts one beat on the wire:
    at the tick, at the thaw if its machine is frozen then, and none if
    it is down by then."""
    sends, timers, deployments, network = run_deployments(scenario)
    interval = scenario["interval_ms"]
    expected = collections.Counter()
    claimed = 0
    for created, members, complete_at in deployments:
        names = {gqes.name for gqes in members}
        own = [(tick, live) for tick, live in timers if live <= names]
        by_tick = dict(own)
        assert len(by_tick) == len(own), own  # one timer per tick
        claimed += len(own)
        tick, alive = created, names
        while tick <= CADENCE_HORIZON_MS:
            verdicts = {gqes.name: beats_at(
                tick, created, scenario["crashes"].get(gqes.machine.name),
                complete) for gqes, complete in zip(members, complete_at)}
            live = {name for name, verdict in verdicts.items() if verdict}
            maybe = {name for name, verdict in verdicts.items()
                     if verdict is None}
            beating = by_tick.pop(tick, None)
            if beating is None:
                # The timer stopped: nobody was live.
                assert not live, (tick, live)
                break
            assert live <= beating <= (live | maybe) & alive, (
                tick, beating, live, maybe)
            for gqes in members:
                if gqes.name not in beating:
                    continue
                endpoint = network.endpoint(gqes.name)
                leave = endpoint.availability.thaw(tick)
                if (leave < endpoint.availability.down_at(endpoint.born)
                        and leave <= CADENCE_HORIZON_MS):
                    expected[leave, gqes.name] += 1
            tick, alive = tick + interval, beating
        assert not by_tick, by_tick  # no tick off the cadence
    assert claimed == len(timers)
    assert collections.Counter(sends) == expected


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
        timers=sorted(
            tick for tick, _live in shared_timers) if not per_gqes else sorted(
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


# -- the ledger against the wire (decisions 39 and 44) ----------------------


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


def log_wire(network, reads):
    """Every heartbeat put on the wire, as ``(sender, arrivals, read)``:
    when each of its copies arrives, none if the link dropped it, and
    how many of ``reads`` were made before it was sent."""
    wire = []
    transmit = network.transmit

    def transmitting(message):
        arrivals = transmit(message)
        if message.subject == HEARTBEAT:
            wire.append((message.sender, arrivals, len(reads)))
        return arrivals

    network.transmit = transmitting
    return wire


def hearing(wire, host, name, now):
    """What a read of GQES ``name`` at ``now`` may find last heard,
    ``wire`` holding the heartbeats sent before it and ``host`` being
    the GDQS's endpoint.  A copy that lands is heard as
    it lands, this instant included; one that reaches the host in a
    stall is held and heard as the stall ends; one that reaches it
    down, never.  Returns the latest instant heard for certain (None if
    none) and the later ones a read may also have heard, where the
    order of same-instant events decides: a held copy heard at the read
    itself, or as the host goes down."""
    table = host.availability
    down = table.down_at(host.born)
    certain, maybe = None, set()
    for sender, arrivals, _read in wire:
        if sender != name:
            continue
        for when in arrivals:
            if when >= down:
                continue
            heard = when
            if table.holds(when):
                heard = next(end for start, end in table.frozen
                             if start <= when <= end)
                if heard > down or heard > now:
                    continue
                if heard == now or heard == down:
                    maybe.add(heard)
                    continue
            elif heard > now:
                continue
            if certain is None or heard > certain:
                certain = heard
    return certain, {heard for heard in maybe
                     if certain is None or heard > certain}


def check_reads(reads, wire, host, started_at):
    """Every read is the latest heartbeat the wire landed by then, or
    the query's start if none."""
    assert reads
    for index, (now, name, value) in enumerate(reads):
        sent = [entry for entry in wire if entry[2] <= index]
        certain, maybe = hearing(sent, host, name, now)
        floor = started_at if certain is None else certain
        assert value == floor or value in maybe, (now, name, value,
                                                  floor, maybe)


def graded(reads, ft, index_of, machine_of):
    """The decisions the wheel owes its reads: each read's silence,
    ``now`` less the value read, against the timeouts.  Past the
    failure timeout the GQES is recovered, its quarantine lifted once
    the 3 ms recovery is done, or the query aborted once the recovery
    budget is spent; past the suspect timeout its clone is quarantined
    once, and reintegrated when a read finds it heard again.  Returns
    them with the number of reads they account for: none follows an
    abort, and a recovered GQES is never read again."""
    handled, suspected, decisions = set(), set(), []
    for count, (now, name, value) in enumerate(reads, 1):
        assert name not in handled, (now, name)
        silent = now - value
        if silent > ft.failure_timeout_ms:
            if (ft.max_recoveries is not None
                    and len(handled) >= ft.max_recoveries):
                decisions.append((now, "abort", CAUSE_BUDGET,
                                  machine_of[name]))
                return decisions, count
            decisions.append((now, "recover", name))
            handled.add(name)
            if name in suspected:
                suspected.discard(name)
                decisions.append((now + 3.0, "reintegrate", index_of[name]))
        elif ft.suspect_timeout_ms is not None:
            if silent > ft.suspect_timeout_ms and name not in suspected:
                suspected.add(name)
                decisions.append((now, "quarantine", index_of[name]))
            elif silent <= ft.suspect_timeout_ms and name in suspected:
                suspected.discard(name)
                decisions.append((now, "reintegrate", index_of[name]))
    return decisions, len(reads)


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
    """Records the quarantines and reintegrations the wheel asks for."""

    crashed = False

    def __init__(self, decisions, env):
        self.decisions, self.env = decisions, env

    def set_quarantined(self, subplan_id, index, quarantined):
        self.decisions.append((
            self.env.now, "quarantine" if quarantined else "reintegrate",
            index))
        return iter(())

    def spawn(self, body, name):
        pass


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


def run_failover(scenario):
    """One watched query's GQESs heartbeating to a real GDQS, its wheel
    grading them.  The query's engine is a stand-in: compute instances
    to quarantine, a recovery that takes 3 ms, an abort that ends it."""
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
    env, network = context.env, context.network
    ft = FaultToleranceConfig(
        enabled=True, heartbeat_interval_ms=interval,
        suspect_timeout_ms=scenario["suspect_ms"],
        failure_timeout_ms=scenario["failure_ms"],
        max_recoveries=scenario["max_recoveries"])
    gdqs = GDQS(context, "gdqs-host", {}, {}, fault_tolerance=ft)
    failover = gdqs.failover
    reads = record_reads(failover)
    wire = log_wire(network, reads)
    decisions = []
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
    return dict(
        ft=ft,
        reads=reads,
        wire=wire,
        decisions=decisions,
        host=network.endpoint(gdqs.name),
        started_at=handle.started_at,
        index_of={gqes.name: index
                  for index, gqes in enumerate(runtime.gqess)},
        machine_of={gqes.name: gqes.machine.name for gqes in runtime.gqess},
        counters=(network.messages_delivered, network.messages_dropped,
                  network.bytes_delivered),
        now=env.now,
        watched=failover.watched)


#: The wheel's tick dispatched just before the heartbeats at the same
#: instant, and each heartbeat arriving at the next tick: every copy
#: lands on a read.
TIED = dict(
    seed=0, interval_ms=100.0, latency_ms=99.0, loopback_ms=0.01,
    machines=["m0", "m1"], wheel_first=True, suspect_ms=None,
    failure_ms=250.0, max_recoveries=None, drop=0.0, duplicate=0.0,
    delay=0.0, delay_ms=7.0, crashes={}, freezes={},
    complete_at=[None, None], replacement_at=None)


@given(scenario=ledger_scenarios())
@example(scenario=TIED)
# The same, the wheel dispatched after the heartbeats, with a suspect
# timeout and the GDQS host frozen across two ticks.
@example(scenario=dict(TIED, wheel_first=False, suspect_ms=150.0,
                       freezes={"gdqs-host": (150.0, 150.0)}))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_the_wheel_hears_what_the_wire_landed(scenario):
    run = run_failover(scenario)
    check_reads(run["reads"], run["wire"], run["host"], run["started_at"])
    decisions, covered = graded(run["reads"], run["ft"], run["index_of"],
                                run["machine_of"])
    assert covered == len(run["reads"])
    assert run["decisions"] == decisions
    # Every copy is counted once: delivered if it reaches the GDQS
    # before it is down, else dropped, like one the link dropped.
    host = run["host"]
    down = host.availability.down_at(host.born)
    copies = [when for _sender, arrivals, _read in run["wire"]
              for when in arrivals]
    delivered = sum(when < down for when in copies)
    assert run["counters"] == (
        delivered,
        len(copies) - delivered + sum(
            not arrivals for _sender, arrivals, _read in run["wire"]),
        delivered * CONTROL_MESSAGE_BYTES)
    # A drained run's clock reaches the last copy, and no watch is left.
    assert run["now"] >= max(copies, default=0.0)
    assert not run["watched"]


def test_a_copy_landing_on_a_read_is_heard():
    run = run_failover(TIED)
    assert run["decisions"] == []
    assert len(run["reads"]) > 20
    assert all(value == now for now, _name, value in run["reads"])


#: Where a Q1 run that has not drained is cut off.  A freeze that
#: outlasts the failure timeout can stall a query for good (ROADMAP
#: item 2 (e)), and a failed GDQS leaves retries running.
HORIZON_MS = 30_000.0


def run_q1(seed, freeze, failure, faults):
    """Q1 on the demo grid under ``faults`` (drop, duplicate, delay
    probabilities), a ``(machine, at, duration)`` freeze and a
    ``(machine, at)`` failure of a machine's services."""
    drop, duplicate, delay = faults
    ft = dataclasses.replace(FT, suspect_timeout_ms=300.0)
    grid = DemoGrid(
        dataclasses.replace(SPEC, seed=seed), fault_tolerance=ft,
        chaos=ChaosConfig.lossy(
            drop_probability=drop, duplicate_probability=duplicate,
            delay_probability=delay, delay_ms=30.0,
            freezes=(MachineFreeze(*freeze),) if freeze else ()))
    context = grid.context
    env, network = context.env, context.network
    gdqs = grid.processor.gdqs
    failover = gdqs.failover
    reads = record_reads(failover)
    wire = log_wire(network, reads)
    recoveries = []
    recover = failover.recover

    def recovering(runtime, failed):
        recoveries.append((env.now, failed.name))
        return (yield from recover(runtime, failed))

    failover.recover = recovering
    if failure is not None:
        grid.fail_machine_at(*failure)
    handle = gdqs.submit(Q1, AdaptivityConfig())
    while env.peek() <= HORIZON_MS:
        env.step()
    return dict(
        ft=ft,
        reads=reads,
        wire=wire,
        recoveries=recoveries,
        suspects=[(event.timestamp, dict(event.data)["gqes"])
                  for event in context.tracer.events
                  if event.description == "gqes suspect"],
        host=network.endpoint(gdqs.name),
        started_at=handle.started_at)


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
def test_deployed_query_hears_what_the_wire_landed(seed, freeze, failure,
                                                   faults):
    """On a deployed Q1 every read is what the wire landed, a recovery
    starts exactly at a read past the failure timeout, and a GQES is
    suspected only at a read past the suspect timeout."""
    run = run_q1(seed, freeze, failure, faults)
    check_reads(run["reads"], run["wire"], run["host"], run["started_at"])
    ft = run["ft"]
    assert run["recoveries"] == [
        (now, name) for now, name, value in run["reads"]
        if now - value > ft.failure_timeout_ms]
    silences = {(now, name): now - value
                for now, name, value in run["reads"]}
    for suspect in run["suspects"]:
        assert (ft.suspect_timeout_ms < silences[suspect]
                <= ft.failure_timeout_ms), suspect
