"""Grid service base class.

Services are the paper's unit of deployment: loosely-coupled,
machine-bound components that communicate asynchronously by message.
A :class:`GridService` owns a network endpoint; each arrival is routed
by callback, in arrival order:

* ``request`` messages invoke ``op_<subject>`` generator methods and
  send the returned value back as a ``response``;
* ``notify`` messages invoke :meth:`on_notification` (pub/sub);
* ``data`` and ``control`` messages invoke :meth:`on_data` and
  :meth:`on_control`, which engine-level services override.

The synchronous-looking :meth:`call` helper performs a full
request/response round trip over the simulated network, so control
interactions (e.g. the Responder polling producers for progress) pay
realistic latency.

A service created for one query is told to :meth:`~GridService.retire`
when the query ends; once idle it lets go of everything the grid owns
that pointed at it, leaving a tombstone endpoint behind.
"""

from __future__ import annotations

import itertools
import typing

from repro.errors import ServiceError
from repro.grid.container import GridContext
from repro.net.message import (
    KIND_CONTROL,
    KIND_DATA,
    KIND_NOTIFY,
    KIND_REQUEST,
    KIND_RESPONSE,
    Message,
)
from repro.sim.environment import Process
from repro.sim.events import Event

#: Wire size assumed for small control/notification payloads.
CONTROL_MESSAGE_BYTES = 768

_correlation_ids = itertools.count(1)


class GridService:
    """Base class for all simulated Grid services."""

    def __init__(self, context: GridContext, name: str,
                 machine_name: str) -> None:
        self.context = context
        self.env = context.env
        self.network = context.network
        self.name = name
        self.machine = context.registry.machine(machine_name)
        self.mailbox = self.network.register(
            name, machine_name, on_arrival=self._drain_mailbox,
            availability=self.machine.availability)
        self._pending_calls: dict[int, Event] = {}
        # Correlation ids of calls already settled (timed out, or
        # completed by a first reply): a reply arriving for one — a
        # stale reply after a timeout, or a chaos-duplicated response —
        # must be discarded, not treated as a protocol violation.
        self._settled_calls: set[int] = set()
        self.stale_replies_discarded = 0
        # True while a thaw timeout is armed to drain the mailbox.
        self._thaw_armed = False
        self.crashed = False
        #: Processes started through :meth:`spawn` still running.
        self._busy = 0
        self._retiring = False
        self._then_retire: typing.Sequence[GridService] = ()
        self.retired = False
        context.track_service(self)

    # -- lifecycle -----------------------------------------------------------

    def spawn(self, body: typing.Generator, name: str) -> Process:
        """Run ``body`` as a process doing this service's work, which
        nothing waits on: the service does not retire while one is in
        progress, and a failure surfaces from the simulation loop."""
        self._busy += 1
        process = self.env.process(body, name=name)
        process.callbacks.append(self._spawned_done)
        return process

    def _spawned_done(self, process: Process) -> None:
        if not process.ok:
            raise process.value
        self._busy -= 1
        self._retire_if_idle()

    def retire(self, then: typing.Sequence["GridService"] = ()) -> None:
        """The query this service was created for has ended.

        The service retires as soon as it is idle — nothing spawned
        still running and nothing waiting in its mailbox, unless it
        crashed — and :meth:`_done`, which can be at once; then it
        asks the services ``then`` to retire.  A retired service
        leaves the context's service list (a later crash of its host
        cannot touch it) and its endpoint becomes a tombstone, so no
        grid-owned reference keeps it, or what it references, alive.
        """
        self._retiring = True
        self._then_retire = then
        self._retire_if_idle()

    def _done(self) -> bool:
        """Whether the service has wound down (default: at once)."""
        return True

    def _retire_if_idle(self) -> None:
        if not self._retiring or self.retired:
            return
        if not self.crashed and (self._busy or self.mailbox):
            return
        if not self._done():
            return
        self.retired = True
        self.context.untrack_service(self)
        self.network.retire(self.name, self._late_handler())
        self._on_retire()
        then, self._then_retire = self._then_retire, ()
        for service in then:
            service.retire()

    def _late_handler(self):
        """What the tombstone does with a late message (default: drop)."""
        return None

    def _on_retire(self) -> None:
        """Subclass hook run once the service has retired."""

    def crash(self) -> None:
        """Simulate a host failure taking this service down.

        Dispatching stops, the endpoint is deactivated (messages to it
        are blackholed, as a dead LAN peer would), and the
        :meth:`on_crash` hook lets subclasses halt their internal
        activity.  Crashing is idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self.network.deactivate(self.name)
        self.on_crash()
        self._retire_if_idle()

    def on_crash(self) -> None:
        """Subclass hook run when the service crashes (default: none)."""

    # -- outgoing ---------------------------------------------------------

    def send(self, recipient: str, kind: str, payload: typing.Any,
             subject: str = "", size_bytes: int = CONTROL_MESSAGE_BYTES,
             correlation_id: int | None = None) -> Event:
        """Fire-and-forget message send; returns the delivery event."""
        return self.network.send(Message(
            sender=self.name, recipient=recipient, kind=kind,
            payload=payload, size_bytes=size_bytes, subject=subject,
            correlation_id=correlation_id))

    def send_within(self, recipient: str, kind: str, payload: typing.Any,
                    size_bytes: int, timeout_ms: float
                    ) -> typing.Generator[Event, typing.Any, bool]:
        """One synchronous send attempt that waits at most
        ``timeout_ms``: ``delivered = yield from send_within(...)``.

        Each copy's arrival is known as the message goes on the wire
        (decision 40): the attempt waits for the first copy's delivery
        if it arrives by the deadline (a tie goes to the delivery), else
        for the deadline; the drained clock reaches the deadline.  A
        frozen host goes on the wire as its stall ends, and one down by
        then resolves at once (decision 41).
        """
        env, network = self.env, self.network
        deadline = env.now + timeout_ms
        while (leave := network.leave(self.name)) is not None \
                and leave > env.now:
            yield env.event().succeed(at=leave)
        if leave is None:
            yield env.event().succeed()
            env.reach(deadline)
            return True
        message = Message(sender=self.name, recipient=recipient, kind=kind,
                          payload=payload, size_bytes=size_bytes)
        arrivals = network.transmit(message)
        delivered = network.deliver_all(message, arrivals)
        if arrivals and arrivals[0] <= deadline:
            yield delivered
            env.reach(deadline)
            return True
        yield env.event().succeed(at=max(deadline, env.now))
        return False

    def notify(self, recipient: str, topic: str,
               payload: typing.Any) -> Event:
        """Send an asynchronous pub/sub notification."""
        return self.send(recipient, KIND_NOTIFY, payload, subject=topic)

    def call(self, recipient: str, operation: str,
             payload: typing.Any = None, timeout_ms: float | None = None,
             retry=None
             ) -> typing.Generator[Event, typing.Any, typing.Any]:
        """Request/response round trip: ``result = yield from call(...)``.

        With ``timeout_ms`` set, a missing response (e.g. the recipient
        crashed) raises :class:`~repro.errors.ServiceError` instead of
        blocking forever.  With a :class:`~repro.chaos.config
        .RetryPolicy` as ``retry``, failed attempts are repeated after
        a capped, jittered exponential backoff (each attempt bounded by
        ``timeout_ms`` or, failing that, the policy's ``timeout_ms``)
        until one succeeds or ``max_attempts`` is exhausted.
        """
        if retry is not None:
            result = yield from self._call_with_retry(
                recipient, operation, payload, timeout_ms, retry)
            return result
        correlation_id = next(_correlation_ids)
        reply = self.env.event()
        self._pending_calls[correlation_id] = reply
        self.send(recipient, KIND_REQUEST, payload, subject=operation,
                  correlation_id=correlation_id)
        if timeout_ms is None:
            response = yield reply
            return response
        winner, value = yield self.env.any_of(
            [reply, self.env.timeout(timeout_ms)])
        if winner is not reply:
            if self._pending_calls.pop(correlation_id, None) is not None:
                self._settled_calls.add(correlation_id)
            raise ServiceError(
                f"{self.name}: call {operation!r} to {recipient} timed "
                f"out after {timeout_ms} ms")
        return value

    def _call_with_retry(self, recipient: str, operation: str,
                         payload: typing.Any, timeout_ms: float | None,
                         retry) -> typing.Generator:
        attempt_timeout = (timeout_ms if timeout_ms is not None
                           else retry.timeout_ms)
        attempt = 0
        while True:
            attempt += 1
            try:
                result = yield from self.call(
                    recipient, operation, payload,
                    timeout_ms=attempt_timeout)
                return result
            except ServiceError:
                if (retry.max_attempts is not None
                        and attempt >= retry.max_attempts):
                    raise
                chaos = self.context.chaos
                if chaos is not None:
                    chaos.count_retry("call")
                    backoff = chaos.retry_backoff_ms(retry, attempt)
                else:
                    backoff = retry.backoff_ms(attempt)
                if backoff > 0:
                    yield self.env.timeout(backoff)

    # -- incoming ---------------------------------------------------------

    def _drain_mailbox(self) -> None:
        """Route every buffered message, in arrival order.

        Called by the network on each arrival.  On a frozen host
        delivered messages sit in the mailbox (its kernel buffer)
        until the stall ends: one thaw timeout is armed and drains
        them when it fires.  A crashed service routes nothing.
        """
        if self._thaw_armed:
            return
        buffered = self.mailbox.items
        while buffered and not self.crashed:
            thaw = self.machine.availability.thaw(self.env.now)
            if thaw > self.env.now:
                self._thaw_armed = True
                self.env.timeout(thaw - self.env.now).callbacks.append(
                    self._on_thaw)
                return
            self._route(buffered.popleft())
        if self._retiring:
            self._retire_if_idle()

    def _on_thaw(self, _event: Event) -> None:
        self._thaw_armed = False
        self._drain_mailbox()

    def _route(self, message: Message) -> None:
        if message.kind == KIND_RESPONSE:
            self._complete_call(message)
        elif message.kind == KIND_REQUEST:
            self.spawn(self._serve_request(message),
                       name=f"{self.name}:op:{message.subject}")
        elif message.kind == KIND_NOTIFY:
            self.on_notification(message.subject, message.payload,
                                 message.sender)
        elif message.kind == KIND_DATA:
            self.on_data(message)
        elif message.kind == KIND_CONTROL:
            self.on_control(message)
        else:
            raise ServiceError(
                f"{self.name}: unknown message kind {message.kind!r}")

    def _complete_call(self, message: Message) -> None:
        reply = self._pending_calls.pop(message.correlation_id, None)
        if reply is None:
            if message.correlation_id in self._settled_calls:
                # Reply to a call that already timed out or was
                # answered (duplicated response): discard it instead
                # of misdelivering (or aborting the run).
                self.stale_replies_discarded += 1
                return
            raise ServiceError(
                f"{self.name}: unexpected response "
                f"(correlation {message.correlation_id})")
        self._settled_calls.add(message.correlation_id)
        if isinstance(message.payload, BaseException):
            reply.fail(message.payload)
        else:
            reply.succeed(message.payload)

    def _serve_request(self, message: Message) -> typing.Generator:
        handler = getattr(self, f"op_{message.subject}", None)
        if handler is None:
            result: typing.Any = ServiceError(
                f"{self.name}: no operation {message.subject!r}")
        else:
            try:
                result = yield from handler(message.payload, message.sender)
            except Exception as exc:  # delivered to the caller
                result = exc
        self.send(message.sender, KIND_RESPONSE, result,
                  subject=message.subject,
                  correlation_id=message.correlation_id)

    # -- overridable hooks ---------------------------------------------------

    def on_notification(self, topic: str, payload: typing.Any,
                        sender: str) -> None:
        """Handle a pub/sub notification (default: ignore)."""

    def on_data(self, message: Message) -> None:
        """Handle a tuple-buffer message (engine services override)."""
        raise ServiceError(f"{self.name}: unexpected data message")

    def on_control(self, message: Message) -> None:
        """Handle an engine control message (engine services override)."""
        raise ServiceError(f"{self.name}: unexpected control message")
