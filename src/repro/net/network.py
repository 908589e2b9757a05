"""The network fabric: endpoints, mailboxes and message routing.

Services register named endpoints bound to a machine.  Sending a
message looks up the (source machine, destination machine) link,
transfers the message and finally deposits it in the destination
endpoint's mailbox, where the owning service's dispatch loop picks it
up.  Local messages (same machine) bypass the link and are delivered
after a small, configurable loopback delay.
"""

from __future__ import annotations

import dataclasses

from repro.errors import NetworkError
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


@dataclasses.dataclass
class Endpoint:
    """A named, machine-bound message destination.

    An inactive endpoint models a crashed host whose network stack is
    gone: messages addressed to it are transported and then dropped,
    which is what a sender on a LAN observes (no error, no reply).
    """

    name: str
    machine_name: str
    mailbox: Store
    active: bool = True


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

    def register(self, endpoint_name: str, machine_name: str) -> Store:
        """Create an endpoint on ``machine_name``; returns its mailbox."""
        if endpoint_name in self._endpoints:
            raise NetworkError(f"endpoint already registered: {endpoint_name}")
        mailbox = Store(self.env)
        self._endpoints[endpoint_name] = Endpoint(
            endpoint_name, machine_name, mailbox)
        return mailbox

    def deactivate(self, endpoint_name: str) -> None:
        """Mark an endpoint crashed: future messages are blackholed."""
        endpoint = self._endpoints.get(endpoint_name)
        if endpoint is not None:
            endpoint.active = False

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
        (blocking, SOAP/HTTP-style) send.
        """
        source = self.endpoint(message.sender)
        destination = self.endpoint(message.recipient)
        message.sent_at = self.env.now
        done = Event(self.env)
        if source.machine_name == destination.machine_name:
            self._start_delivery(message, destination, done, None)
        else:
            link = self.link_between(
                source.machine_name, destination.machine_name)
            if self.chaos is None:
                self._start_delivery(message, destination, done, link)
            else:
                fault = self.chaos.message_fault(
                    source.machine_name, destination.machine_name,
                    message.kind)
                self._start_delivery(message, destination, done, link,
                                     drop=fault.drop,
                                     extra_delay_ms=fault.extra_delay_ms)
                if fault.duplicate:
                    # The copy re-occupies the same link FIFO behind the
                    # original; its delivery event is nobody's business.
                    self._start_delivery(message, destination,
                                         Event(self.env), link)
        return done

    def _start_delivery(self, message: Message, destination: Endpoint,
                        done: Event, link: Link | None, drop: bool = False,
                        extra_delay_ms: float = 0.0) -> None:
        """Kick off one delivery as a callback chain.

        The link transfer (or loopback timeout) starts at the kick
        event's *dispatch*, not at the ``send`` call: messages sent at
        the same instant enter a link's FIFO in the order their kicks
        fire.
        """
        env = self.env

        if link is None:
            def on_kick(_event: Event) -> None:
                if self.config.loopback_delay_ms > 0:
                    timeout = env.timeout(self.config.loopback_delay_ms)

                    def on_loopback(_event: Event) -> None:
                        self._finish_delivery(message, destination, done)

                    timeout.callbacks.append(on_loopback)
                else:
                    self._finish_delivery(message, destination, done)
        else:
            def on_kick(_event: Event) -> None:
                delivered = link.transfer(message.size_bytes, extra_delay_ms)

                def on_delivered(_event: Event) -> None:
                    if drop:
                        # A chaos-dropped message occupies the link but
                        # is never delivered — the sender observes
                        # silence, like a lost datagram; ``done`` never
                        # fires, so synchronous senders must pair it
                        # with a timeout (the retry wrappers do).
                        self.messages_dropped += 1
                        return
                    self._finish_delivery(message, destination, done)

                delivered.callbacks.append(on_delivered)

        kick = Event(env)
        kick.callbacks.append(on_kick)
        kick.succeed(None)

    def _finish_delivery(self, message: Message, destination: Endpoint,
                         done: Event) -> None:
        message.delivered_at = self.env.now
        if destination.active:
            self.messages_delivered += 1
            self.bytes_delivered += message.size_bytes
            destination.mailbox.put(message)
        else:
            self.messages_dropped += 1
        done.succeed(message)
