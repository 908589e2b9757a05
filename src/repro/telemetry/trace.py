"""Event tracing for analysis of adaptive behaviour.

The paper's evaluation narrates *when* things happened — how many raw
events the engine produced, how often the detector notified the
diagnoser, when rebalancing took effect.  The :class:`Tracer` records
exactly that timeline: every grid context owns one, and the adaptivity
components append structured events as they act.  Experiments and
examples render it with :func:`format_timeline`.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

#: Well-known event categories.
CATEGORY_QUERY = "query"
CATEGORY_MONITORING = "monitoring"
CATEGORY_ASSESSMENT = "assessment"
CATEGORY_RESPONSE = "response"
CATEGORY_FAILURE = "failure"
CATEGORY_SCHEDULER = "scheduler"


@dataclasses.dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence."""

    timestamp: float
    category: str
    source: str
    description: str
    data: tuple = ()

    def data_dict(self) -> dict:
        return dict(self.data)


class Tracer:
    """Append-only event log in simulation-time order; every event is
    retained (experiments replay the full timeline)."""

    def __init__(self, env) -> None:
        self._env = env
        self.events: list[TraceEvent] = []
        self.enabled = True

    def record(self, category: str, source: str, description: str,
               **data: typing.Any) -> None:
        """Record one event at the current simulation time."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(
            timestamp=self._env.now,
            category=category,
            source=source,
            description=description,
            data=tuple(sorted(data.items()))))

    def in_category(self, category: str) -> list[TraceEvent]:
        return [event for event in self.events
                if event.category == category]

    def counts_by_category(self) -> dict[str, int]:
        """Events recorded per category."""
        return dict(collections.Counter(event.category
                                        for event in self.events))


def format_timeline(events: typing.Sequence[TraceEvent],
                    categories: typing.AbstractSet[str] | None = None
                    ) -> str:
    """Render events as an aligned, second-resolution timeline."""
    lines = []
    for event in events:
        if categories is not None and event.category not in categories:
            continue
        extras = " ".join(f"{key}={value}" for key, value in event.data)
        line = (f"{event.timestamp / 1000.0:9.3f}s  "
                f"[{event.category:<10}] {event.source}: "
                f"{event.description}")
        if extras:
            line = f"{line}  ({extras})"
        lines.append(line)
    return "\n".join(lines)
