"""Point-to-point network link model.

Each ordered machine pair shares one :class:`Link`.  A transfer holds
the link for its transmission time (``size / bandwidth``) — so
concurrent senders to the same destination serialise, as on a shared
100 Mbps segment — and is then delivered after the propagation
``latency``, which does not occupy the link.  Messages on a link are
delivered in FIFO order, a property the recovery protocol relies on.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import ConfigurationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class Link:
    """A latency/bandwidth pipe between two machines."""

    def __init__(self, env: Environment, latency_ms: float,
                 bandwidth_bytes_per_ms: float) -> None:
        if latency_ms < 0:
            raise ConfigurationError(f"negative latency: {latency_ms}")
        if bandwidth_bytes_per_ms <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive: {bandwidth_bytes_per_ms}")
        self.env = env
        self.latency_ms = latency_ms
        self.bandwidth = bandwidth_bytes_per_ms
        #: Transfers waiting for the link, in FIFO order, as
        #: ``(size_bytes, extra_delay_ms, delivered, value)``.
        self._waiting: collections.deque[tuple] = collections.deque()
        #: The transfer occupying the link, or None while it is idle.
        self._in_flight: tuple | None = None
        self.bytes_sent = 0
        self.messages_sent = 0
        self.chaos_delay_ms = 0.0

    def transmission_time(self, size_bytes: int) -> float:
        """Time the link is occupied transmitting ``size_bytes``."""
        return size_bytes / self.bandwidth

    def transfer(self, size_bytes: int, extra_delay_ms: float = 0.0,
                 delivered: Event | None = None,
                 value: typing.Any = None) -> Event:
        """Send ``size_bytes``; the event fires at delivery time.

        On an idle link transmission starts in this call, so
        same-instant transfers occupy the link in call order.
        ``delivered`` (a fresh event by default) succeeds with
        ``value`` at delivery.  ``extra_delay_ms`` models
        chaos-injected congestion: it extends this transfer's link
        occupancy, so later messages queue behind it and FIFO delivery
        order is preserved.
        """
        if delivered is None:
            delivered = Event(self.env)
        item = (size_bytes, extra_delay_ms, delivered, value)
        if self._in_flight is None:
            self._transmit(item)
        else:
            self._waiting.append(item)
        return delivered

    def _transmit(self, item: tuple) -> None:
        self._in_flight = item
        self.env.timeout(
            self.transmission_time(item[0]) + item[1]
        ).callbacks.append(self._on_transmitted)

    def _on_transmitted(self, _event: Event) -> None:
        size_bytes, extra_delay_ms, delivered, value = self._in_flight
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        if extra_delay_ms > 0:
            self.chaos_delay_ms += extra_delay_ms
        # Propagation happens off-link: delivery is queued without
        # blocking the next transmission.
        delivered.succeed(value, delay=self.latency_ms)
        if self._waiting:
            self._transmit(self._waiting.popleft())
        else:
            self._in_flight = None
