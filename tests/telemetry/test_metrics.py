"""Unit tests for the simulated-time metrics registry."""

import json

import pytest

from repro.sim.environment import Environment
from repro.telemetry.metrics import (
    AdaptivityReport,
    MetricsRegistry,
    percentile,
)


def make_registry(enabled=True, **kwargs):
    return MetricsRegistry(Environment(), enabled=enabled, **kwargs)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = make_registry().counter("events", query="q1")
        counter.inc()
        counter.inc(4.0)
        assert counter.value == 5.0

    def test_gauge_set(self):
        gauge = make_registry().gauge("depth")
        assert gauge.value == 0.0
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_gauge_callback_read_at_snapshot_time(self):
        state = {"busy": 1.0}
        gauge = make_registry().gauge("busy", fn=lambda: state["busy"])
        state["busy"] = 9.0
        assert gauge.value == 9.0
        assert gauge.snapshot()["value"] == 9.0

    def test_histogram_summary(self):
        histogram = make_registry().histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        stats = histogram.summary()
        assert stats["count"] == 100
        assert stats["sum"] == pytest.approx(5050.0)
        assert stats["min"] == 1.0
        assert stats["max"] == 100.0
        assert stats["mean"] == pytest.approx(50.5)
        assert stats["p50"] == 50.0
        assert stats["p95"] == 95.0
        assert stats["p99"] == 99.0

    def test_empty_histogram_summary(self):
        histogram = make_registry().histogram("latency")
        assert histogram.summary() == {"count": 0, "sum": 0.0}

    def test_series_records_sim_time_and_evicts(self):
        registry = make_registry(series_maxlen=3)
        series = registry.series("queue")
        for value in range(5):
            series.sample(float(value))
        assert series.recorded == 5
        # Only the most recent maxlen samples survive.
        assert [value for _t, value in series.samples] == [2.0, 3.0, 4.0]
        assert all(t == registry.env.now for t, _v in series.samples)


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = make_registry()
        first = registry.counter("sent", machine="m1")
        again = registry.counter("sent", machine="m1")
        other = registry.counter("sent", machine="m2")
        assert first is again
        assert first is not other

    def test_find_registered_instrument(self):
        registry = make_registry()
        histogram = registry.histogram("latency", query="q1")
        assert registry.find("histogram", "latency", query="q1") is histogram
        assert registry.find("histogram", "latency", query="q2") is None

    def test_disabled_registry_hands_out_noops(self):
        registry = make_registry(enabled=False)
        counter = registry.counter("sent")
        counter.inc(10.0)
        registry.gauge("depth").set(5.0)
        registry.histogram("latency").observe(1.0)
        registry.series("queue").sample(2.0)
        assert counter.value == 0.0
        assert registry.instruments() == []
        assert registry.snapshot() == []

    def test_disabled_registry_drops_reports(self):
        registry = make_registry(enabled=False)
        registry.add_report(make_report())
        assert registry.reports == []

    def test_snapshot_lists_instruments_then_reports(self):
        registry = make_registry()
        registry.counter("sent", machine="m1").inc()
        registry.add_report(make_report())
        records = registry.snapshot()
        assert [r["type"] for r in records] == ["counter",
                                                "adaptivity_report"]
        assert records[0]["labels"] == {"machine": "m1"}

    def test_write_jsonl_round_trips(self, tmp_path):
        registry = make_registry()
        registry.counter("sent").inc(3.0)
        registry.histogram("latency").observe(2.0)
        registry.add_report(make_report())
        path = tmp_path / "metrics.jsonl"
        count = registry.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {
            "counter", "histogram", "adaptivity_report"}


def make_report():
    return AdaptivityReport(
        query_id="q1", response_time_ms=1234.5, adaptations_applied=1,
        proposals_sent=2, cost_notifications=7, raw_monitoring_events=37,
        tuple_balance_ratio=1.0, tuples_per_consumer=(75, 75),
        detection_latency_ms={"count": 0, "sum": 0.0})


class TestAdaptivityReport:
    def test_to_dict_is_json_serialisable(self):
        record = make_report().to_dict()
        assert record["type"] == "adaptivity_report"
        assert record["tuples_per_consumer"] == [75, 75]
        json.dumps(record)
