"""Property tests: one heartbeat timer per deployment.

The GQESs of one deployment — all of a query's, or one recovery
replacement — are created at one instant, so their heartbeats fall
due together and :func:`repro.dqp.gqes.heartbeats` sends them
all from one timer.  :class:`ReferenceHeartbeats` is the design it
replaced, one timer loop per GQES started as the GQES is created.  Run
beside each other under the same faults, the two must be
indistinguishable: every heartbeat sent at the same place among the
other events, the same heartbeat arrivals at the GDQS in the same
order, the same ``chaos:link`` draws, and — the point of the change —
one queued timer per tick per deployment instead of one per GQES.
"""

import dataclasses
import sys

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
from repro.dqp.gqes import GQES, heartbeats
from repro.errors import QueryFailedError
from repro.grid import GridContext
from repro.services.base import GridService
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

    def spawn(self, gqes: GQES, interval_ms: float, deployment) -> None:
        gqes.env.process(self._loop(gqes, interval_ms, deployment))

    def _loop(self, gqes, interval_ms, deployment):
        while not gqes.crashed and not gqes.query_complete.triggered:
            gqes.notify(gqes.gdqs_endpoint, "gqes.heartbeat",
                        {"machine": gqes.machine.name, "gqes": gqes.name,
                         "query_id": gqes.query_id})
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
    """Record what either design may not change, and the shared timers.

    Returns two lists filled as the run goes.  ``sends`` holds each
    heartbeat send as ``(time, sender, place)``, where ``place`` counts
    the events dispatched before it other than those that drive a
    heartbeat process or fire with no callback: a send that moves
    among same-instant events moves in this list.  ``timers`` holds the
    time of every ``Timeout`` queued with :func:`heartbeats` on the
    stack.
    """
    env, network = context.env, context.network
    sends, timers, place = [], [], [0]
    dispatch, schedule, send = env._dispatch, env.schedule, network.send

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

    def sending(message):
        if message.subject == "gqes.heartbeat":
            sends.append((env.now, message.sender, place[0]))
        return send(message)

    env._dispatch, env.schedule, network.send = (
        dispatching, scheduling, sending)
    return sends, timers


class Recorder(GridService):
    """The GDQS's side: every heartbeat arrival, in arrival order."""

    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.arrivals = []

    def on_notification(self, topic, payload, sender):
        assert topic == "gqes.heartbeat"
        self.arrivals.append((self.env.now, sender, payload["query_id"]))


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
    with the shared timer.  Returns the arrivals, the ``chaos:link``
    stream state and the shared timers' tick times."""
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
    gdqs = Recorder(context, "gdqs", "gdqs-host")
    sends, shared_timers = observe(context)
    interval = scenario["interval_ms"]

    def deploy(machines, deployment):
        created = []
        for machine in machines:
            gqes = GQES(context, "q", machine, EngineConfig(), CostModel(),
                        gdqs_endpoint=gdqs.name)
            created.append(gqes)
            if reference is not None:
                reference.spawn(gqes, interval, deployment)
        if reference is None:
            env.process(heartbeats(created, interval))
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
    return (sends, gdqs.arrivals,
            context.random.stream("chaos:link").getstate(), shared_timers)


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
                            runtime.context.env.now)

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
        arrivals = []
        failover = grid.processor.gdqs.failover
        on_heartbeat = failover.on_heartbeat

        def recording(payload, sender):
            arrivals.append((grid.context.env.now, sender,
                             payload["query_id"]))
            on_heartbeat(payload, sender)

        failover.on_heartbeat = recording
        sends, shared_timers = observe(grid.context)
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
        arrivals=arrivals,
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
