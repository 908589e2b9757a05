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
                 on_arrival: typing.Callable[[], None] | None = None
                 ) -> Store:
        """Create an endpoint on ``machine_name``; returns its mailbox."""
        if endpoint_name in self._endpoints:
            raise NetworkError(f"endpoint already registered: {endpoint_name}")
        mailbox = Store(self.env)
        self._endpoints[endpoint_name] = Endpoint(
            endpoint_name, machine_name, mailbox, on_arrival=on_arrival)
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
        wrappers do); a duplicate's delivery is nobody's business.
        """
        arrivals = self.transmit(message)
        if not arrivals:
            return Event(self.env)
        done = self.deliver(message, arrivals[0])
        for when in arrivals[1:]:
            self.deliver(message, when)
        return done

    def transmit(self, message: Message) -> tuple[float, ...]:
        """Put ``message`` on the wire; returns each copy's arrival time.

        The half of :meth:`send` that queues nothing: the link (or the
        loopback delay) is occupied and the chaos verdict drawn, and
        the caller decides how each copy arrives — :meth:`deliver`, or
        :meth:`land` for a recipient that takes it as data.  A
        chaos-dropped message occupies the link and arrives nowhere,
        like a lost datagram; a duplicate re-occupies the link FIFO
        behind the original.
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

    def deliver(self, message: Message, when: float) -> Event:
        """Queue one copy's delivery at the absolute time ``when``."""
        # Not ``succeed(value, delay)``: now + (when - now) may round
        # off ``when``, and the delivery time must be exact.
        delivered = Event(self.env)
        delivered.callbacks.append(self._on_arrival)
        delivered._ok = True
        delivered._value = message
        self.env.schedule(delivered, when)
        return delivered

    def land(self, message: Message, arrivals: tuple[float, ...]) -> None:
        """Count the copies of ``message`` arriving at ``arrivals`` as
        delivered, queuing nothing: for a live recipient that takes
        them as data (decision 39).  The counts run ahead of simulated
        time until the last arrival, which a drained run reaches."""
        self.messages_delivered += len(arrivals)
        self.bytes_delivered += message.size_bytes * len(arrivals)
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
