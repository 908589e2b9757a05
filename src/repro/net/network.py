"""The network fabric: endpoints, mailboxes and message routing.

Services register named endpoints bound to a machine.  Sending a
message looks up the (source machine, destination machine) link,
transfers the message and finally deposits it in the destination
endpoint's mailbox, where the owning service's dispatcher picks it
up.  Local messages (same machine) bypass the link and are delivered
after a small, configurable loopback delay.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.errors import ConfigurationError, NetworkError
from repro.net.availability import ALWAYS, Availability
from repro.net.link import Link
from repro.net.message import Message
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.stores import Store


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Fabric-wide link parameters.

    Defaults model the paper's testbed: a 100 Mbps switched LAN
    (12 500 bytes/ms) with sub-millisecond latency.
    """

    latency_ms: float = 0.5
    bandwidth_bytes_per_ms: float = 12_500.0
    loopback_delay_ms: float = 0.01

    def __post_init__(self) -> None:
        # A NaN or infinite arrival time must fail here, not at the
        # first send, or never: a heartbeat's arrival is data that no
        # ``schedule`` call checks (decision 39).
        for field in ("latency_ms", "loopback_delay_ms"):
            value = getattr(self, field)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{field} must be finite and >= 0: {value}")
        if not 0.0 < self.bandwidth_bytes_per_ms < math.inf:
            raise ConfigurationError(
                "bandwidth_bytes_per_ms must be finite and > 0: "
                f"{self.bandwidth_bytes_per_ms}")


@dataclasses.dataclass(slots=True)
class Endpoint:
    """A named, machine-bound message destination.

    An inactive endpoint models a crashed host whose network stack is
    gone: messages addressed to it are transported and then dropped,
    which is what a sender on a LAN observes (no error, no reply).

    A *tombstone* (``mailbox`` None) is what :meth:`Network.retire`
    leaves of a retired service: the name still routes, and a message
    that arrives late goes to ``on_late`` instead of a mailbox.
    """

    name: str
    machine_name: str
    mailbox: Store | None
    #: Its machine's schedule (decision 41), and when it registered.
    availability: Availability = ALWAYS
    born: float = 0.0
    active: bool = True
    #: Called after each message lands in the mailbox (a service's
    #: dispatcher); None leaves the mailbox to whoever ``get``s it.
    on_arrival: typing.Callable[[], None] | None = None
    #: A tombstone's handler for a late message; None drops it.
    on_late: typing.Callable[[Message], None] | None = None


class Network:
    """Routes messages between registered endpoints."""

    def __init__(self, env: Environment,
                 config: NetworkConfig | None = None) -> None:
        self.env = env
        self.config = config or NetworkConfig()
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        # Chaos injector hook; None means no fault injection at all.
        self.chaos = None

    # -- registration ---------------------------------------------------

    def register(self, endpoint_name: str, machine_name: str,
                 on_arrival: typing.Callable[[], None] | None = None,
                 availability: Availability = ALWAYS) -> Store:
        """Create an endpoint on ``machine_name``; returns its mailbox."""
        if endpoint_name in self._endpoints:
            raise NetworkError(f"endpoint already registered: {endpoint_name}")
        mailbox = Store(self.env)
        self._endpoints[endpoint_name] = Endpoint(
            endpoint_name, machine_name, mailbox, availability,
            self.env._now, on_arrival=on_arrival)
        return mailbox

    def deactivate(self, endpoint_name: str) -> None:
        """Mark an endpoint crashed: future messages are blackholed."""
        endpoint = self._endpoints.get(endpoint_name)
        if endpoint is not None:
            endpoint.active = False

    def retire(self, endpoint_name: str,
               on_late: typing.Callable[[Message], None] | None = None
               ) -> None:
        """Leave a tombstone of a retired service's endpoint.

        The mailbox and dispatcher are let go, so the endpoint no
        longer keeps its service alive; the name keeps routing (a
        sender may still address it, and a retired service may still
        send from it), and a late arrival goes to ``on_late``.
        """
        endpoint = self.endpoint(endpoint_name)
        endpoint.mailbox = None
        endpoint.on_arrival = None
        endpoint.on_late = on_late

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint: {name}") from None

    def link_between(self, src_machine: str, dst_machine: str) -> Link:
        """The (lazily created) link for an ordered machine pair."""
        key = (src_machine, dst_machine)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = Link(
                self.env, self.config.latency_ms,
                self.config.bandwidth_bytes_per_ms)
        return link

    # -- sending ----------------------------------------------------------

    def send(self, message: Message) -> Event:
        """Dispatch ``message``; the event fires once it is delivered.

        The caller may ignore the returned event for fire-and-forget
        notifications, or ``yield`` it to model a synchronous
        (blocking, SOAP/HTTP-style) send.  The returned event is the
        one queued for the first copy's delivery, and the arrival
        bookkeeping is its first callback: a message is in its
        recipient's mailbox before any waiter on the send resumes.
        Messages sent at the same instant enter a link's FIFO in call
        order.  A chaos-dropped message's event never fires, so
        synchronous senders must pair it with a timeout (the retry
        wrappers do); a duplicate's delivery is nobody's business.  A
        frozen sender's message leaves as its stall ends, by one event
        there; from one down by then, none does (decision 41).
        """
        leave = self.leave(message.sender)
        if leave is None:
            return Event(self.env).succeed(None)
        if leave > self.env._now:
            held = Event(self.env)
            self.env.event().succeed(at=leave).callbacks.append(
                lambda _event: self.send(message).callbacks.append(
                    lambda delivery: held.succeed(delivery._value)))
            return held
        return self.deliver_all(message, self.transmit(message))

    def leave(self, sender: str) -> float | None:
        """When a message ``sender`` sends now goes on the wire: now,
        or the end of its machine's stall; None when the sender is down
        by then and sends nothing (decision 41)."""
        endpoint = self.endpoint(sender)
        table = endpoint.availability
        leave = table.thaw(self.env._now)
        return None if table.down_at(endpoint.born) <= leave else leave

    def transmit(self, message: Message) -> tuple[float, ...]:
        """Put ``message`` on the wire now; returns each copy's arrival.

        The half of :meth:`send` that queues nothing, for a sender that
        can leave now (:meth:`leave`): the link (or the loopback delay)
        is occupied and the chaos verdict drawn, and the caller decides
        how each copy arrives — :meth:`deliver`, or :meth:`land` for a
        recipient that takes it as data.  A chaos-dropped message
        occupies the link and arrives nowhere, like a lost datagram; a
        duplicate re-occupies the link FIFO behind the original.
        """
        source = self.endpoint(message.sender)
        destination = self.endpoint(message.recipient)
        now = self.env._now
        message.sent_at = now
        if source.machine_name == destination.machine_name:
            return (now + self.config.loopback_delay_ms,)
        link = self.link_between(
            source.machine_name, destination.machine_name)
        if self.chaos is None:
            return (link.occupy(message.size_bytes) + link.latency_ms,)
        fault = self.chaos.message_fault(
            source.machine_name, destination.machine_name, message.kind)
        if fault.drop:
            link.occupy(message.size_bytes, fault.extra_delay_ms)
            self.messages_dropped += 1
            return ()
        arrival = link.occupy(message.size_bytes,
                              fault.extra_delay_ms) + link.latency_ms
        if fault.duplicate:
            return (arrival,
                    link.occupy(message.size_bytes) + link.latency_ms)
        return (arrival,)

    def deliver_all(self, message: Message,
                    arrivals: tuple[float, ...]) -> Event:
        """Queue each copy's delivery; returns the first's (or none's)."""
        delivered = [self.deliver(message, when) for when in arrivals]
        return delivered[0] if delivered else Event(self.env)

    def deliver(self, message: Message, when: float) -> Event:
        """Queue one copy's delivery at the absolute time ``when``."""
        delivered = Event(self.env)
        delivered.callbacks.append(self._on_arrival)
        return delivered.succeed(message, at=when)

    def land(self, message: Message, arrivals: typing.Sequence[float]
             ) -> None:
        """Count the copies of ``message`` arriving at ``arrivals``
        delivered (or dropped, once the recipient is down), queuing
        nothing: for a recipient that takes them as data (decisions 39
        and 41).  The counts run ahead of simulated time until the last
        arrival, which a drained run reaches."""
        recipient = self._endpoints[message.recipient]
        down = recipient.availability.down_at(recipient.born)
        delivered = sum(when < down for when in arrivals)
        self.messages_dropped += len(arrivals) - delivered
        self.messages_delivered += delivered
        self.bytes_delivered += message.size_bytes * delivered
        for when in arrivals:
            self.env.reach(when)

    def _on_arrival(self, event: Event) -> None:
        """A delivery event fired: hand its message to the recipient."""
        message: Message = event._value
        destination = self._endpoints[message.recipient]
        message.delivered_at = self.env.now
        if not destination.active:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self.bytes_delivered += message.size_bytes
        mailbox = destination.mailbox
        if mailbox is None:
            if destination.on_late is not None:
                destination.on_late(message)
            return
        mailbox.put_many((message,))
        if destination.on_arrival is not None:
            destination.on_arrival()
