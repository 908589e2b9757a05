"""A finished query leaves nothing behind.

At its terminal outcome the GDQS retires the query's services: each
leaves the context's service list, its endpoint becomes a tombstone and
the handle lets go of the runtime, so the operators, logs and protocol
state of a finished query are freed by reference counting alone — the
heap and the cycle collector's work stay bounded by the queries in
flight, not the queries ever run.
"""

import gc
import weakref

import pytest

from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.dqp.gdqs import GDQS
from repro.engine.control import ChannelAnnouncement, DataBuffer
from repro.net.message import KIND_CONTROL, KIND_DATA
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2, perturb_ws_cost

SPEC = DemoGridSpec(sequences_cardinality=60, interactions_cardinality=90,
                    sequence_length=16)
STATIC = AdaptivityConfig.disabled()
A1R1 = AdaptivityConfig(assessment="A1", response="R1",
                        decision_latency_ms=100.0)
FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0)


@pytest.fixture
def no_cycle_collector():
    """Hold the cycle collector off: only reference counting frees."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def engine_objects(runtime):
    """Everything deployed for one query, from its runtime."""
    for gqes in runtime.all_gqes():
        yield gqes
        for fragment in gqes.fragments.values():
            yield fragment
            yield from fragment.consumers.values()
            for producer in fragment.producers:
                yield producer
                yield producer.protocol
                yield from (log for log in producer._logs if log is not None)
    yield from runtime.detectors.values()
    yield from (service for service in (runtime.diagnoser, runtime.responder)
                if service is not None)


def mixed_grid(count, monkeypatch=None, refs=None, **grid_options):
    """A grid and a scheduler for ``count`` queries.  With ``refs``, a
    weak reference to every object deployed for a query is appended
    (taken at submit)."""
    if refs is not None:
        submit = GDQS.submit

        def recording_submit(self, *args, **kwargs):
            handle = submit(self, *args, **kwargs)
            refs.extend(weakref.ref(obj)
                        for obj in engine_objects(handle.runtime))
            return handle

        monkeypatch.setattr(GDQS, "submit", recording_submit)
    grid = DemoGrid(grid_options.pop("spec", SPEC), **grid_options)
    perturb_ws_cost(grid, 8.0)
    return grid, grid.scheduler(SchedulerConfig(max_concurrent=4,
                                                max_queued=count))


def drain_mixed(scheduler, count):
    """``count`` Q1/Q2 queries, static and A1R1 alternately."""
    for index in range(count):
        scheduler.submit((Q1, Q2)[index % 2],
                         adaptivity=(STATIC, STATIC, A1R1, A1R1)[index % 4])
    outcomes = scheduler.drain()
    assert all(not outcome.failed for outcome in outcomes)


def test_finished_queries_are_freed_by_reference_counting(
        monkeypatch, no_cycle_collector):
    refs = []
    grid, scheduler = mixed_grid(20, monkeypatch, refs)
    drain_mixed(scheduler, 20)
    kinds = {type(ref()).__name__ for ref in refs if ref() is not None}
    assert not kinds, f"still alive: {sorted(kinds)}"
    assert len(refs) > 20 * 10
    assert grid.context.services_on("compute-1") == []


def container_lengths(gdqs):
    """Total length of the dict / set / list attributes of the GDQS
    and of its failover object."""
    owners = (gdqs, vars(gdqs).get("failover"))
    return sum(len(value) for owner in owners if owner is not None
               for value in vars(owner).values()
               if isinstance(value, (dict, set, list)))


@pytest.mark.parametrize("fault_tolerance", [None, FT],
                         ids=["static", "fault-tolerant"])
def test_live_heap_is_bounded_by_queries_in_flight(no_cycle_collector,
                                                   fault_tolerance):
    """Thirty more finished queries keep only what a finished query
    keeps on purpose — its result rows, session, handle, statistics,
    trace records and a small tombstone per service: about 130 objects
    each here, against about 720 when the services were never let go.
    The GDQS itself keeps nothing per finished query, heartbeats
    included."""
    grid, scheduler = mixed_grid(
        40, spec=DemoGridSpec(sequences_cardinality=20,
                              interactions_cardinality=30,
                              sequence_length=16),
        metrics_enabled=False, fault_tolerance=fault_tolerance)
    gdqs = grid.processor.gdqs
    drain_mixed(scheduler, 10)
    ten = len(gc.get_objects())
    held = container_lengths(gdqs)
    drain_mixed(scheduler, 30)
    forty = len(gc.get_objects())
    assert forty - ten < 30 * 200, (ten, forty)
    assert container_lengths(gdqs) == held


def test_late_messages_pay_ingest_and_raise_nothing():
    """A data buffer and a control message arriving after the query
    ended cost what ingest costs on the host, and nothing else."""
    grid = DemoGrid(SPEC)
    env = grid.context.env
    gdqs = grid.processor.gdqs
    handle = gdqs.submit(Q1, STATIC)
    gqes = handle.runtime.gqes_by_machine["compute-1"]
    env.run(until=handle.done)
    env.run()
    channel_key = next(iter(gqes._consumers))
    cpu = gqes.machine.cpu
    rows = 37
    deserialize = grid.context.serialization.deserialize_work(rows)
    control = gqes.cost.control_event_work
    speed = cpu.speed_at(env.now)
    busy = cpu.busy_time
    gdqs.send(gqes.name, KIND_DATA,
              DataBuffer(channel_key, "xp:late", [], rows))
    gdqs.send(gqes.name, KIND_CONTROL,
              ChannelAnnouncement(channel_key, "xp:late", frozenset(), 1))
    env.run()
    assert cpu.busy_time == busy + deserialize / speed + control / speed


def test_crash_after_completion_crashes_only_live_services():
    grid = DemoGrid(SPEC)
    env = grid.context.env
    gdqs = grid.processor.gdqs
    finished = gdqs.submit(Q1, A1R1)
    finished_services = list(engine_objects(finished.runtime))
    env.run(until=finished.done)
    env.run()
    running = gdqs.submit(Q2, STATIC)
    live = [gqes for gqes in running.runtime.all_gqes()
            if gqes.machine.name == "compute-1"]
    env.run(until=env.now + 50.0)
    victims = grid.context.fail_machine("compute-1")
    assert victims == live
    assert not any(getattr(service, "crashed", False)
                   for service in finished_services)
    assert all(service.retired for service in finished_services
               if hasattr(service, "retired"))
