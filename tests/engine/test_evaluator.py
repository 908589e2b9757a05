"""Direct tests for the Fragment evaluator (the subplan "thread")."""

import pytest

from repro.config import AdaptivityConfig, CostModel, EngineConfig
from repro.core import M1Event, MonitoringEventDetector
from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.evaluator import Fragment
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.base import END, EvalContext, Operator
from repro.grid import GridContext
from repro.policy import create_policy


class TimedSource(Operator):
    """Source producing ``count`` rows, each costing ``work`` CPU ms."""

    def __init__(self, ctx, count, work=1.0):
        super().__init__(ctx)
        self.count = count
        self.work = work
        self._produced = 0
        self.finish_calls = 0
        self.closed = False

    def next_batch(self, max_rows):
        if self._produced >= self.count:
            return END
        self._produced += 1
        yield from self.ctx.machine.work("source", self.work)
        return Batch([Row((self._produced,), f"t#{self._produced}")])

    def finish(self):
        self.finish_calls += 1
        return
        yield  # pragma: no cover

    def close(self):
        self.closed = True
        return
        yield  # pragma: no cover


def make_fragment(count=25, work=1.0, m1_interval=0, monitor=None):
    context = GridContext(seed=0)
    context.add_machine("m1")
    ctx = EvalContext(
        grid=context, machine=context.machine("m1"),
        metrics=SubplanMetrics("compute:0"), cost=CostModel(),
        engine_config=EngineConfig(), monitor=monitor)
    source = TimedSource(ctx, count, work)
    fragment = Fragment(ctx, "compute", 0, source, {}, [],
                        m1_interval=m1_interval)
    return context, fragment, source


def run_fragment(context, fragment, complete_at=None):
    query_complete = context.env.event()

    def completer(env):
        yield env.timeout(complete_at if complete_at is not None else 1e6)
        if not query_complete.triggered:
            query_complete.succeed(None)

    context.env.process(completer(context.env))
    process = context.env.process(fragment.run(query_complete))
    context.env.run(until=process)
    return query_complete


class TestFragmentPump:
    def test_pump_drains_source_and_parks(self):
        context, fragment, source = make_fragment(count=10)
        run_fragment(context, fragment, complete_at=100.0)
        assert source._produced == 10
        assert source.finish_calls >= 1
        assert source.closed
        assert fragment.completed

    def test_metrics_count_iterations(self):
        context, fragment, _source = make_fragment(count=8)
        run_fragment(context, fragment, complete_at=50.0)
        assert fragment.ctx.metrics.produced == 8
        assert fragment.ctx.metrics.elapsed_ms_total >= 8.0

    def test_halt_stops_pump_without_finish(self):
        context, fragment, source = make_fragment(count=1000, work=1.0)

        def crasher(env):
            yield env.timeout(5.5)
            fragment.halted = True
            fragment.wake()

        context.env.process(crasher(context.env))
        run_fragment(context, fragment, complete_at=10_000.0)
        assert fragment.completed
        assert source._produced < 1000
        assert not source.closed  # abrupt loss, no clean close

    def test_wake_is_idempotent(self):
        context, fragment, _source = make_fragment(count=1)
        fragment.wake()
        fragment.wake()  # triggering twice must not raise
        run_fragment(context, fragment, complete_at=10.0)

    def test_m1_events_emitted_per_interval(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        config = AdaptivityConfig()
        detector = MonitoringEventDetector(
            context, "m1", config, CostModel(),
            policy=create_policy(config))
        ctx = EvalContext(
            grid=context, machine=context.machine("m1"),
            metrics=SubplanMetrics("compute:0"), cost=CostModel(),
            engine_config=EngineConfig(), monitor=detector)
        source = TimedSource(ctx, 35, work=2.0)
        fragment = Fragment(ctx, "compute", 0, source, {}, [],
                            m1_interval=10)
        query_complete = context.env.event()

        def completer(env):
            yield env.timeout(500.0)
            query_complete.succeed(None)

        context.env.process(completer(context.env))
        process = context.env.process(fragment.run(query_complete))
        context.env.run(until=process)
        # 35 produced at 1 M1 per 10 -> 3 events.
        assert fragment.m1_events_emitted == 3
        assert detector.raw_events_received == 3

    def test_no_m1_without_monitor(self):
        context, fragment, _source = make_fragment(count=30, m1_interval=10)
        run_fragment(context, fragment, complete_at=100.0)
        assert fragment.m1_events_emitted == 0

    def test_m1_cost_reflects_source_work(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        captured = []

        class FakeDetector:
            def submit_m1(self, event: M1Event, count=1):
                captured.extend([event] * count)

            def intake_work(self, count):
                return 0.0

        ctx = EvalContext(
            grid=context, machine=context.machine("m1"),
            metrics=SubplanMetrics("compute:0"), cost=CostModel(),
            engine_config=EngineConfig(), monitor=FakeDetector())
        source = TimedSource(ctx, 20, work=5.0)
        fragment = Fragment(ctx, "compute", 0, source, {}, [],
                            m1_interval=10)
        query_complete = context.env.event()

        def completer(env):
            yield env.timeout(1000.0)
            query_complete.succeed(None)

        context.env.process(completer(context.env))
        process = context.env.process(fragment.run(query_complete))
        context.env.run(until=process)
        assert len(captured) == 2
        # Cost per tuple: 5 ms of work plus the monitor-event charge.
        assert captured[0].cost_per_tuple_ms == pytest.approx(5.0, abs=0.2)
        assert captured[0].machine_name == "m1"
        assert captured[0].subplan_id == "compute"
