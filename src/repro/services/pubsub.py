"""Publish/subscribe support for adaptivity components.

The paper's adaptivity components "can subscribe to each other and
communicate asynchronously via notifications" (§2).
:class:`NotificationPublisher` is a mixin for services that maintain
per-topic subscriber lists and fan notifications out over the network.
Subscriptions are established by a direct call during wiring: the
coordinator knows the endpoints.
"""

from __future__ import annotations

import typing

from repro.errors import ServiceError


class NotificationPublisher:
    """Mixin adding topic-based publication to a GridService."""

    def __init__(self) -> None:
        self._subscribers: dict[str, list[str]] = {}
        self.notifications_published = 0

    def subscribe(self, topic: str, endpoint: str) -> None:
        """Register ``endpoint`` for notifications on ``topic``."""
        subscribers = self._subscribers.setdefault(topic, [])
        if endpoint not in subscribers:
            subscribers.append(endpoint)

    def publish(self, topic: str, payload: typing.Any) -> int:
        """Notify every subscriber of ``topic``; returns the fan-out."""
        notify = getattr(self, "notify", None)
        if notify is None:
            raise ServiceError(
                "NotificationPublisher must be mixed into a GridService")
        subscribers = self._subscribers.get(topic, [])
        for endpoint in subscribers:
            notify(endpoint, topic, payload)
        self.notifications_published += len(subscribers)
        return len(subscribers)
