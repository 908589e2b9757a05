"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-scheduling design used by SimPy:
an :class:`Event` is a one-shot occurrence that processes can wait on;
an :class:`~repro.sim.environment.Environment` owns a time-ordered queue
of triggered events and fires their callbacks in order.

Only the features needed by the query-processing simulation are
implemented: plain events, timeouts, and the ``AnyOf`` combinator.
Events are deliberately single-shot; re-triggering one is a
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: Sentinel for "the event has not produced a value yet".
_UNSET = object()

#: Scheduling priority for control-ish events (fires before NORMAL at
#: the same timestamp).
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` triggers it, which schedules it with the environment;
    when the environment processes it, all registered callbacks run and
    the event becomes *processed*.

    Processes wait on events by ``yield``-ing them; see
    :class:`repro.sim.environment.Process`.

    Events are slotted: simulations allocate one per timeout, CPU task
    and store operation, so the per-instance ``__dict__`` is worth
    eliminating.  Subclasses must declare ``__slots__`` too (an empty
    tuple when they add no attributes).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[typing.Callable[["Event"], None]] = []
        self._value: typing.Any = _UNSET
        self._ok: bool | None = None
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once the environment has fired this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value inspected before trigger")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's payload (or exception, if it failed)."""
        if self._value is _UNSET:
            raise SimulationError("event value inspected before trigger")
        return self._value

    def succeed(self, value: typing.Any = None,
                delay: float = 0.0, at: float | None = None) -> "Event":
        """Trigger the event successfully with an optional payload.

        With ``delay`` the event is queued to fire that much later: a
        completion or delivery whose time is known when the work starts
        is its own queued event, not a timeout relayed into one.  With
        ``at`` it fires at exactly that time, unrounded.
        """
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, at if at is not None
                          else self.env._now + delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event sees the exception re-raised at
        its ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, self.env._now)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time from now."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float,
                 value: typing.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env.schedule(self, env._now + delay)


class AnyOf(Event):
    """Succeeds as soon as any child event triggers.

    The value is a ``(event, value)`` pair identifying the winner.  A
    failing child fails this event.

    An **empty** sequence is a :class:`~repro.errors.SimulationError`:
    a race with no contestants can never produce a winner, so waiting
    on one would deadlock the process — better to fail loudly at
    construction time.

    Once it fires, the race lets go of its children and withdraws from
    the losers' callbacks: a loser that stays pending (a timeout, a
    query-complete event raced on every wake-up) neither keeps the
    race alive nor accumulates one dead callback per race.
    """

    __slots__ = ("_children",)

    def __init__(self, env: "Environment",
                 events: typing.Sequence[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise SimulationError(
                "AnyOf needs at least one event: an empty race has no "
                "winner and would wait forever")
        for child in self._children:
            _observe(child, self._on_child)
            if self.triggered:
                break  # an already-processed child won

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((child, child.value))
        else:
            self.fail(child.value)
        on_child = self._on_child
        for loser in self._children:
            if loser is not child and not loser._processed:
                try:
                    loser.callbacks.remove(on_child)
                except ValueError:
                    pass  # not observed yet: the race was decided first
        self._children = ()


def _observe(event: Event, callback: typing.Callable[[Event], None]) -> None:
    """Attach ``callback`` to ``event``, firing immediately if needed."""
    if event.processed:
        callback(event)
    else:
        event.callbacks.append(callback)
