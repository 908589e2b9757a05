"""Point-to-point network link model.

Each ordered machine pair shares one :class:`Link`.  A transfer holds
the link for its transmission time (``size / bandwidth``) — so
concurrent senders to the same destination serialise, as on a shared
100 Mbps segment — and is then delivered after the propagation
``latency``, which does not occupy the link.  Messages on a link are
delivered in FIFO order, a property the recovery protocol relies on.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.stores import Store


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
        # The transmit queue guarantees FIFO occupancy of the link.
        self._transmit_queue: Store = Store(env)
        self._pump_running = False
        #: The transfer currently occupying the link, carried between
        #: the transmission timeout being scheduled and it firing.
        self._current: tuple[int, Event, float] | None = None
        self.bytes_sent = 0
        self.messages_sent = 0
        self.chaos_delay_ms = 0.0

    def transmission_time(self, size_bytes: int) -> float:
        """Time the link is occupied transmitting ``size_bytes``."""
        return size_bytes / self.bandwidth

    def transfer(self, size_bytes: int,
                 extra_delay_ms: float = 0.0) -> Event:
        """Send ``size_bytes``; the event fires at delivery time.

        ``extra_delay_ms`` models chaos-injected congestion: it extends
        this transfer's link occupancy, so later messages queue behind
        it and FIFO delivery order is preserved.
        """
        delivered = Event(self.env)
        self._transmit_queue.put((size_bytes, delivered, extra_delay_ms))
        if not self._pump_running:
            self._pump_running = True
            # The pump starts at the wake's dispatch, not here, so
            # same-instant senders enqueue before the first transmit.
            wake = Event(self.env)
            wake.callbacks.append(self._on_pump_wake)
            wake.succeed(None)
        return delivered

    # The pump is a callback state machine: one transfer occupies the
    # link at a time, taken from the transmit queue in FIFO order.

    def _on_pump_wake(self, _event: Event) -> None:
        self._pump_step()

    def _pump_step(self) -> None:
        if self._transmit_queue.is_empty:
            self._pump_running = False
            return
        # The item is buffered, so the get settles immediately; its
        # dispatch hands the item to _on_item.
        request = self._transmit_queue.get()
        request.callbacks.append(self._on_item)

    def _on_item(self, request: Event) -> None:
        size_bytes, delivered, extra_delay_ms = request.value
        self._current = (size_bytes, delivered, extra_delay_ms)
        timeout = self.env.timeout(
            self.transmission_time(size_bytes) + extra_delay_ms)
        timeout.callbacks.append(self._on_transmitted)

    def _on_transmitted(self, _event: Event) -> None:
        size_bytes, delivered, extra_delay_ms = self._current
        self._current = None
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        if extra_delay_ms > 0:
            self.chaos_delay_ms += extra_delay_ms
        # Propagation happens off-link: schedule delivery without
        # blocking the next transmission.
        self._start_latency(delivered)
        self._pump_step()

    def _start_latency(self, delivered: Event) -> None:
        """Deliver after the propagation latency (may overlap the next
        transmission, so the chain carries its context in a closure)."""
        env = self.env

        def on_kick(_event: Event) -> None:
            if self.latency_ms > 0:
                timeout = env.timeout(self.latency_ms)

                def on_latency(_event: Event) -> None:
                    delivered.succeed(env.now)

                timeout.callbacks.append(on_latency)
            else:
                delivered.succeed(env.now)

        kick = Event(env)
        kick.callbacks.append(on_kick)
        kick.succeed(None)
