"""The discrete-event simulation environment and process model.

:class:`Environment` owns the simulation clock and the pending-event
queue.  :class:`Process` drives a Python generator: each ``yield``
hands back an :class:`~repro.sim.events.Event` to wait on, and the
generator resumes with the event's value once it fires.  A generator's
``return`` value becomes the process's own event value, so processes
compose (``result = yield env.process(sub())``).  A process nobody can
wait on is :meth:`Environment.start`-ed instead: its end queues no
event (decision 40).

The simulation is fully deterministic: ties in time are broken by
scheduling priority, then by insertion order.

Heap entries are slim ``[when, (priority << 48) | seq, event]`` lists:
one packed integer compares priority and insertion order at once.
:attr:`Environment.events_scheduled` counts ``schedule(event, when)``
calls — the only heap push, at an absolute time — i.e. events queued.
A fact kept as data rather than as a queued event is stated by its
instant alone, never by its place among same-instant events;
:meth:`reach` keeps that instant on a drained run's clock (decisions 39
and 44).
"""

from __future__ import annotations

import gc
import heapq
import typing

from repro.errors import SimulationError
from repro.sim.events import (
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    Timeout,
)

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

#: Bits reserved for the insertion sequence number inside a packed heap
#: key; priorities occupy the bits above.  2**48 schedule() calls is
#: far beyond any simulation here (the benchmark workloads queue
#: 4e4-1.5e5 events each).
_SEQ_BITS = 48


class Process(Event):
    """An event that completes when its generator returns.

    The generator is started on the next kernel step (at the current
    simulation time), not synchronously, so a process may wait on
    events created after it was spawned within the same timestamp.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str | None = None) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value of the fired event."""
        env = self.env
        self._target = None
        try:
            if trigger.ok:
                target = self._generator.send(trigger.value)
            else:
                target = self._generator.throw(trigger.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Drop this frame, which holds the process, from the
            # traceback the process keeps: no cycle, generator frames kept.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, "
                "expected an Event")
        if target.env is not env:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another "
                "environment")
        self._target = target
        if not target._processed:
            target.callbacks.append(self._resume)
            return
        # The event already fired; resume through the kernel so the
        # process never outruns the event queue.  The bounce always
        # costs one scheduled event.
        resume = Event(env)
        resume.callbacks.append(self._resume)
        if target.ok:
            resume.succeed(target.value)
        else:
            resume.fail(target.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Started(Process):
    """A process that nothing holds (:meth:`Environment.start`), so its
    end is observable only through what its body did: a return marks
    it processed and queues nothing, and a raise propagates out of
    :meth:`Environment.run` at once, as the failure of a process nobody
    waits on would when dispatched."""

    __slots__ = ()

    def succeed(self, value: typing.Any = None,
                delay: float = 0.0) -> "_Started":
        self._ok = True
        self._value = value
        self._processed = True
        return self

    def fail(self, exception: BaseException) -> "_Started":
        raise exception


class Environment:
    """A deterministic discrete-event simulation environment.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5.0 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Pending entries: ``[when, packed_key, event]``.
        self._queue: list[list] = []
        self._seq = 0
        #: The latest instant passed to :meth:`reach`.
        self._reached = self._now

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever queued — the kernel's work measure.

        One per :meth:`schedule` call.  Batch-granular execution exists
        to shrink this number; the perf benchmarks report it per run.
        """
        return self._seq

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, when: float,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Queue a triggered event at absolute time ``when`` (not NaN)."""
        if not when >= self._now:
            raise SimulationError(f"cannot schedule at {when} < {self._now}")
        self._seq += 1
        heapq.heappush(
            self._queue, [when, (priority << _SEQ_BITS) | self._seq, event])

    def reach(self, when: float) -> None:
        """Something happens at ``when`` that queues no event: a run
        that drains its queue ends no earlier than that, as it would
        have had an event been queued there."""
        if when > self._reached:
            self._reached = when

    # -- event factories ----------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Spawn a process driving ``generator``; returns its event."""
        return Process(self, generator, name=name)

    def start(self, generator: ProcessGenerator, name: str) -> None:
        """Spawn a process nobody can wait on: it costs its bootstrap
        event and no completion event; an exception in its body
        propagates out of :meth:`run`."""
        _Started(self, generator, name=name)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event succeeding when the first of ``events`` triggers."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one scheduled event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _key, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = when
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Fire one event's callbacks and mark it processed.

        Callbacks are iterated in place: every callback appended after
        the trigger is guarded by a ``processed`` check
        (``Process._resume``, ``_observe``), so no copy is needed.
        They are one-shot, so the list is emptied afterwards: an event
        kept as a value (an :class:`~repro.sim.events.AnyOf` winner)
        must not keep its waiters alive.
        """
        callbacks = event.callbacks
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
            callbacks.clear()
        elif not event._ok:
            # A failed event nobody waits on would silently swallow
            # the error; surface it instead.
            raise event._value

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains and the
        clock has passed every instant given to :meth:`reach`), a time
        (run up to and including that instant), or an event (run until
        it has been processed; returns its value).

        A run makes no cyclic garbage, so the loop runs with the cycle
        collector paused, left as the caller had it however the run
        ends (decision 43).  The pause is process-wide.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            if isinstance(until, Event):
                stop_event = until
                while not stop_event._processed:
                    if not self._queue:
                        raise SimulationError(
                            "simulation ran out of events before the awaited "
                            "event fired (deadlock?)")
                    self.step()
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            if until is not None:
                horizon = float(until)
                if horizon < self._now:
                    raise SimulationError(
                        f"cannot run until {horizon} < now {self._now}")
                while self._queue and self._queue[0][0] <= horizon:
                    self.step()
                self._now = horizon
                return None
            while self._queue:
                self.step()
            if self._reached > self._now:
                self._now = self._reached
            return None
        finally:
            if collecting:
                gc.enable()
