"""Tests for the tracing subsystem and its integration hooks."""

from repro.config import AdaptivityConfig, FaultToleranceConfig, RESPONSE_R1
from repro.sim import Environment
from repro.telemetry import (
    CATEGORY_ASSESSMENT,
    CATEGORY_FAILURE,
    CATEGORY_MONITORING,
    CATEGORY_QUERY,
    CATEGORY_RESPONSE,
    TraceEvent,
    Tracer,
    format_timeline,
)
from repro.workloads import DemoGrid, DemoGridSpec, Q1, perturb_ws_cost

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=200,
                    sequence_length=24, spare_machines=1)


class TestTracer:
    def test_records_carry_simulation_time(self):
        env = Environment()
        tracer = Tracer(env)

        def body(env):
            yield env.timeout(42.0)
            tracer.record("query", "me", "something happened", detail=7)

        env.process(body(env))
        env.run()
        event = tracer.events[0]
        assert event.timestamp == 42.0
        assert event.data_dict() == {"detail": 7}

    def test_category_filtering_and_counts(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.record("a", "s", "one")
        tracer.record("b", "s", "two")
        tracer.record("a", "s", "three")
        assert len(tracer.in_category("a")) == 2
        assert tracer.counts_by_category() == {"a": 2, "b": 1}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(Environment())
        tracer.enabled = False
        tracer.record("a", "s", "dropped")
        assert tracer.events == []

    def test_full_retention_is_the_default(self):
        tracer = Tracer(Environment())
        for index in range(1000):
            tracer.record("a", "s", f"event {index}")
        assert len(tracer.events) == 1000

    def test_format_timeline(self):
        events = [TraceEvent(1234.5, "response", "responder:q1",
                             "rebalanced", data=(("epoch", 1),))]
        text = format_timeline(events)
        assert "1.234s" in text or "1.235s" in text
        assert "rebalanced" in text
        assert "epoch=1" in text

    def test_format_timeline_category_filter(self):
        events = [TraceEvent(0.0, "a", "s", "keep"),
                  TraceEvent(0.0, "b", "s", "drop")]
        text = format_timeline(events, categories={"a"})
        assert "keep" in text and "drop" not in text


class TestTracingIntegration:
    def test_adaptive_run_produces_full_pipeline_trace(self):
        grid = DemoGrid(SPEC)
        perturb_ws_cost(grid, 10.0)
        grid.run(Q1, AdaptivityConfig(response=RESPONSE_R1,
                                      decision_latency_ms=100.0))
        tracer = grid.context.tracer
        counts = tracer.counts_by_category()
        assert counts.get(CATEGORY_QUERY, 0) >= 2   # submitted + completed
        assert counts.get(CATEGORY_MONITORING, 0) >= 1
        assert counts.get(CATEGORY_ASSESSMENT, 0) >= 1
        assert counts.get(CATEGORY_RESPONSE, 0) >= 1

    def test_trace_event_order_is_causal(self):
        grid = DemoGrid(SPEC)
        perturb_ws_cost(grid, 10.0)
        grid.run(Q1, AdaptivityConfig(decision_latency_ms=100.0))
        tracer = grid.context.tracer
        first_monitoring = min(
            e.timestamp for e in tracer.in_category(CATEGORY_MONITORING))
        first_response = min(
            (e.timestamp for e in tracer.in_category(CATEGORY_RESPONSE)
             if e.description == "distribution rebalanced"),
            default=None)
        assert first_response is not None
        assert first_monitoring < first_response

    def test_failure_recovery_is_traced(self):
        ft = FaultToleranceConfig(enabled=True,
                                  heartbeat_interval_ms=200.0,
                                  failure_timeout_ms=700.0)
        grid = DemoGrid(SPEC, fault_tolerance=ft)
        grid.fail_machine_at("compute-2", at_ms=900.0)
        grid.run(Q1, AdaptivityConfig.disabled())
        failures = grid.context.tracer.in_category(CATEGORY_FAILURE)
        descriptions = [event.description for event in failures]
        assert "machine failed" in descriptions
        assert "evaluators recovered" in descriptions

    def test_static_unperturbed_run_is_quiet(self):
        grid = DemoGrid(SPEC)
        grid.run(Q1, AdaptivityConfig.disabled())
        tracer = grid.context.tracer
        assert tracer.in_category(CATEGORY_RESPONSE) == []
        assert tracer.in_category(CATEGORY_FAILURE) == []
