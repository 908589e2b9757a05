"""Point-to-point network link model.

Each ordered machine pair shares one :class:`Link`.  A transfer holds
the link for its transmission time (``size / bandwidth``) — so
concurrent senders to the same destination serialise, as on a shared
100 Mbps segment — and is then delivered after the propagation
``latency``, which does not occupy the link.  Messages on a link are
delivered in FIFO order, a property the recovery protocol relies on.
With nothing to cancel, a transfer's delivery time is known when it is
enqueued, so the link keeps only the time it frees: :meth:`Link.occupy`
returns when the transfer is sent, and the network queues the delivery
``latency_ms`` later, at that absolute time (decision 37).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.environment import Environment


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
        #: When the last enqueued transfer finishes transmitting; the
        #: link is idle from then on.
        self._free_at = env.now
        self.bytes_sent = 0
        self.messages_sent = 0
        self.chaos_delay_ms = 0.0

    def occupy(self, size_bytes: int, extra_delay_ms: float = 0.0) -> float:
        """Hold the link for one transfer; returns when it is sent.

        It starts now on an idle link, else when the link frees, so
        same-instant transfers occupy the link in call order.
        ``extra_delay_ms`` (chaos-injected congestion) extends the
        occupancy, so FIFO delivery order is preserved.  A
        chaos-dropped message only occupies the link.
        """
        now = self.env._now
        start = now if self._free_at <= now else self._free_at
        self._free_at = start + (size_bytes / self.bandwidth + extra_delay_ms)
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        if extra_delay_ms > 0:
            self.chaos_delay_ms += extra_delay_ms
        return self._free_at
