"""The MonitoringEventDetector component (§2, §3.1).

One detector runs on each site evaluating a query fragment.  It
receives raw, low-level monitoring events from the local query engine
(M1 per ``m1_interval`` produced tuples, M2 per buffer sent), then:

* groups M1 notifications by the identifier of the operator (subplan
  instance) that generated them, and M2 notifications by the
  concatenated identifiers of the producer and the buffer's recipient;
* computes the running average of the cost over a window of a certain
  length, *discarding the minimum and maximum values*; and
* generates a notification for subscribed Diagnosers when this average
  changes by the threshold ``thresM``.

Raw events are delivered by local method call (the engine and detector
share a machine), so the calling evaluator thread pays for the call:
the detector queues no CPU work of its own, it names its processing
cost (:meth:`MonitoringEventDetector.intake_work`) and the caller adds
it to the fragment's charge ledger *after* the hand-over.  Outgoing
notifications travel over the network.
"""

from __future__ import annotations

import collections
import statistics
import typing

from repro.config import AdaptivityConfig, CostModel
from repro.core.notifications import (
    CostNotification,
    M1Event,
    M2Event,
    TOPIC_COST,
)
from repro.grid.container import GridContext
from repro.policy import AdaptationPolicy, create_policy
from repro.services.base import GridService
from repro.services.pubsub import NotificationPublisher

#: Events a window needs before the detector's first notification.
MIN_WINDOW_EVENTS = 1


def trimmed_average(values: typing.Sequence[float]) -> float:
    """Mean with the single minimum and maximum discarded.

    Falls back to the plain mean when fewer than three values exist
    (nothing sensible to trim).
    """
    if not values:
        raise ValueError("trimmed_average of empty window")
    if len(values) < 3:
        return statistics.fmean(values)
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1])


class MonitoringEventDetector(GridService, NotificationPublisher):
    """Per-site collector and filter of raw monitoring events."""

    def __init__(self, context: GridContext, machine_name: str,
                 config: AdaptivityConfig, cost: CostModel,
                 query_id: str = "q",
                 policy: AdaptationPolicy | None = None) -> None:
        GridService.__init__(self, context,
                             f"detector:{query_id}:{machine_name}",
                             machine_name)
        NotificationPublisher.__init__(self)
        self.config = config
        self.cost = cost
        #: The adaptation policy owning the (re-)notification gate;
        #: shared with the query's Diagnoser/Responder when deployed.
        self.policy = policy if policy is not None else create_policy(config)
        self.query_id = query_id
        self._windows: dict[str, collections.deque] = {}
        self._last_notified: dict[str, float] = {}
        #: Window key per M1 instance id / M2 (producer, channel) pair
        #: and each key's notification fields: constant, so registered
        #: on first sight instead of rebuilt per raw event.
        self._keys: dict[typing.Any, str] = {}
        self._meta: dict[str, tuple] = {}
        self.raw_events_received = 0
        self.cost_notifications_sent = 0

    # -- raw event intake (local calls from the engine) ---------------------

    def submit_m1(self, event: M1Event, count: int = 1) -> None:
        """Ingest ``count`` M1 events sharing one morsel's aggregate cost.

        ``count`` exceeds 1 when a morsel crosses several
        ``m1_interval`` boundaries: the sliding window receives one
        observation per boundary.
        """
        if count <= 0:
            return
        self.raw_events_received += count
        key = self._keys.get(event.instance_id)
        if key is None:
            key = self._register(
                event.instance_id, f"m1|{event.instance_id}", "m1",
                event.instance_id, None, event.subplan_id)
        for _ in range(count):
            self._observe(key, event.cost_per_tuple_ms)

    def submit_m2(self, producer_id: str, recipient_channel: str,
                  send_cost_ms: float, tuple_count: int) -> M2Event:
        """Ingest one M2 event (per buffer sent) from a local producer."""
        event = M2Event(producer_id=producer_id,
                        recipient_channel=recipient_channel,
                        send_cost_ms=send_cost_ms,
                        tuple_count=tuple_count,
                        timestamp=self.env.now)
        if tuple_count <= 0:
            # A degenerate buffer (no data rows) observes nothing, so
            # it must not be counted, charged, or registered either —
            # the raw-event counts feed the overheads experiment.
            return event
        self.raw_events_received += 1
        key = self._keys.get((producer_id, recipient_channel))
        if key is None:
            key = self._register(
                (producer_id, recipient_channel),
                f"m2|{producer_id}->{recipient_channel}", "m2",
                None, recipient_channel, None)
        self._observe(key, send_cost_ms / tuple_count)
        return event

    def intake_work(self, count: int) -> float:
        """CPU work of ingesting ``count`` raw events; the caller pays."""
        return self.cost.control_event_work * count

    def _register(self, ident, key: str, *fields) -> str:
        """First sight of a window: ``fields`` are its notifications'
        (kind, instance id, recipient channel, subplan id)."""
        self._keys[ident] = key
        self._meta[key] = fields
        return key

    # -- windowing and thresholding ------------------------------------------

    def _observe(self, key: str, value: float) -> None:
        window = self._windows.get(key)
        if window is None:
            window = collections.deque(maxlen=self.config.window_size)
            self._windows[key] = window
        window.append(value)
        if len(window) < MIN_WINDOW_EVENTS:
            return
        average = trimmed_average(list(window))
        last = self._last_notified.get(key)
        # The (re-)notification threshold is policy-owned (the paper
        # instance applies thres_m with the THRES_M_FLOOR fallback
        # against a zero baseline).
        if not self.policy.notification_gate(last, average):
            return
        self._last_notified[key] = average
        self._emit(key, average, len(window))

    def _emit(self, key: str, average: float, window_length: int) -> None:
        kind, instance_id, recipient_channel, subplan_id = self._meta[key]
        notification = CostNotification(
            kind=kind,
            key=key,
            instance_id=instance_id,
            recipient_channel=recipient_channel,
            subplan_id=subplan_id,
            average_value=average,
            window_length=window_length,
            timestamp=self.env.now)
        self.publish(TOPIC_COST, notification)
        self.cost_notifications_sent += 1
        self.context.tracer.record(
            "monitoring", self.name, "cost notification",
            key=key, average=round(average, 3))
