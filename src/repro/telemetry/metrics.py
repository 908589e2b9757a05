"""Simulated-time metrics: counters, gauges, histograms, time series.

The :class:`MetricsRegistry` lives on the :class:`GridContext` next to
the :class:`~repro.telemetry.trace.Tracer` and gives every layer of the
stack — machines, exchanges, the adaptivity pipeline, the scheduler —
named instruments keyed by label sets, in the always-on measurement
style the grid-tuning literature treats as the prerequisite for
adaptive control.

Recording is **zero-cost to the simulation**: an instrument update is a
plain attribute mutation that may read the simulation clock but never
schedules a DES event, charges CPU work, or draws randomness.  The
event timeline is therefore bit-identical with metrics enabled or
disabled (property-tested in ``tests/properties``).  A disabled
registry hands out shared no-op instruments so call sites stay
unconditional.

Exporters: :meth:`MetricsRegistry.snapshot` (one dict per instrument)
and :meth:`MetricsRegistry.write_jsonl` (one JSON object per line).
The per-query :class:`AdaptivityReport` summarises one query's
adaptivity health — adaptations applied, detection latency, realized
tuple balance — and rides along in both exports.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import typing

from repro.sim.environment import Environment

#: Quantiles reported by histogram summaries.
QUANTILES = (0.50, 0.95, 0.99)


def percentile(values: typing.Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (must be non-empty)."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _label_key(labels: typing.Mapping[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


class Instrument:
    """Base: a named, labelled measurement owned by one registry."""

    kind = "instrument"

    def __init__(self, name: str, labels: typing.Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)

    def payload(self) -> dict:
        """Kind-specific snapshot fields."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        record = {"type": self.kind, "name": self.name,
                  "labels": dict(self.labels)}
        record.update(self.payload())
        return record


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: typing.Mapping[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def payload(self) -> dict:
        return {"value": self.value}


class Gauge(Instrument):
    """A point-in-time value: set directly, or read from a callback.

    Callback gauges (``fn``) are evaluated only at snapshot time, so an
    expensive observable (a CPU's utilisation, a machine's contention
    factor) costs nothing while the simulation runs.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: typing.Mapping[str, str],
                 fn: typing.Callable[[], float] | None = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def payload(self) -> dict:
        return {"value": self.value}


class Histogram(Instrument):
    """A distribution of observed values with p50/p95/p99 summaries."""

    kind = "histogram"

    def __init__(self, name: str, labels: typing.Mapping[str, str]) -> None:
        super().__init__(name, labels)
        self._values: list[float] = []
        # Dirty-flag cache of the sorted samples: quantile queries and
        # the p50/p95/p99 export sorted the full list per call — three
        # sorts per histogram per export.  The cache sorts once after
        # each run of observes and every quantile reads it, which is
        # value-identical (same nearest-rank over the same samples).
        self._sorted: list[float] | None = None
        self.total = 0.0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sorted = None
        self.total += value

    @property
    def count(self) -> int:
        return len(self._values)

    def _ordered(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def quantile(self, fraction: float) -> float:
        if not self._values:
            raise ValueError("percentile of empty sequence")
        ordered = self._ordered()
        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """count/sum/min/max/mean plus the standard quantiles."""
        if not self._values:
            return {"count": 0, "sum": 0.0}
        ordered = self._ordered()
        stats = {
            "count": len(ordered),
            "sum": self.total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": self.total / len(ordered),
        }
        for fraction in QUANTILES:
            rank = max(1, math.ceil(fraction * len(ordered)))
            stats[f"p{int(fraction * 100)}"] = ordered[rank - 1]
        return stats

    def payload(self) -> dict:
        return self.summary()


class SeriesSampler(Instrument):
    """A bounded time series of ``(sim_time, value)`` samples.

    Keeps the most recent ``maxlen`` samples (the tail of a long run is
    what occupancy/queue-depth plots need) and counts every sample ever
    recorded so eviction is visible.
    """

    kind = "series"

    def __init__(self, name: str, labels: typing.Mapping[str, str],
                 env: Environment, maxlen: int) -> None:
        super().__init__(name, labels)
        self._env = env
        self._samples: collections.deque = collections.deque(maxlen=maxlen)
        self.recorded = 0

    def sample(self, value: float) -> None:
        self._samples.append((self._env.now, value))
        self.recorded += 1

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def payload(self) -> dict:
        return {"recorded": self.recorded,
                "samples": [[t, v] for t, v in self._samples]}


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    value = 0.0
    count = 0
    total = 0.0
    recorded = 0
    samples: list = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def sample(self, value: float) -> None:
        pass

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0}


_NULL = _NullInstrument()


@dataclasses.dataclass(frozen=True)
class AdaptivityReport:
    """One query's adaptivity health, as the paper's §3.2 reports it."""

    query_id: str
    response_time_ms: float
    adaptations_applied: int
    proposals_sent: int
    cost_notifications: int
    raw_monitoring_events: int
    #: max/min tuples per consumer (1.0 = perfectly balanced).
    tuple_balance_ratio: float
    tuples_per_consumer: tuple
    #: :meth:`Histogram.summary` of detector->proposal latency (ms);
    #: ``{"count": 0, ...}`` when no proposal was ever raised.
    detection_latency_ms: dict = dataclasses.field(default_factory=dict)
    #: Name of the adaptation policy that ran the control loop
    #: ("static" when adaptivity was disabled).
    policy: str = "static"
    #: Workload mass moved by one adaptation and reversed by a later
    #: one (sum of sign-flipped weight-delta overlaps); controller
    #: churn, not fault handling.
    oscillation: float = 0.0

    def to_dict(self) -> dict:
        record = dataclasses.asdict(self)
        record["tuples_per_consumer"] = list(self.tuples_per_consumer)
        record["type"] = "adaptivity_report"
        return record


class MetricsRegistry:
    """Get-or-create home of every instrument in one simulated world."""

    def __init__(self, env: Environment, enabled: bool = True,
                 series_maxlen: int = 2048) -> None:
        self.env = env
        self.enabled = enabled
        self.series_maxlen = series_maxlen
        self._instruments: dict[tuple, Instrument] = {}
        self.reports: list[AdaptivityReport] = []

    # -- instrument factories (get-or-create by (kind, name, labels)) ----

    def _get(self, kind: str, name: str, labels: dict,
             factory: typing.Callable[[], Instrument]):
        if not self.enabled:
            return _NULL
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    # ``name``/``kind`` are positional-only so labels may reuse those
    # words (the detector labels its raw-event counter kind="m1"/"m2").

    def counter(self, name: str, /, **labels: str):
        return self._get(Counter.kind, name, labels,
                         lambda: Counter(name, labels))

    def gauge(self, name: str, /,
              fn: typing.Callable[[], float] | None = None, **labels: str):
        return self._get(Gauge.kind, name, labels,
                         lambda: Gauge(name, labels, fn=fn))

    def histogram(self, name: str, /, **labels: str):
        return self._get(Histogram.kind, name, labels,
                         lambda: Histogram(name, labels))

    def series(self, name: str, /, **labels: str):
        return self._get(SeriesSampler.kind, name, labels,
                         lambda: SeriesSampler(name, labels, self.env,
                                               self.series_maxlen))

    def find(self, kind: str, name: str, /, **labels: str):
        """An already-registered instrument, or None."""
        return self._instruments.get((kind, name, _label_key(labels)))

    def instruments(self) -> list[Instrument]:
        return list(self._instruments.values())

    # -- per-query reports ----------------------------------------------

    def add_report(self, report: AdaptivityReport) -> None:
        if self.enabled:
            self.reports.append(report)

    # -- exporters -------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """One plain dict per instrument, then one per query report."""
        records = [instrument.snapshot()
                   for instrument in self._instruments.values()]
        records.extend(report.to_dict() for report in self.reports)
        return records

    def write_jsonl(self, path) -> int:
        """Write the snapshot as JSON Lines; returns the record count."""
        records = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)
