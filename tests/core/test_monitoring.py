"""Unit tests for the MonitoringEventDetector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import AdaptivityConfig, CostModel, EngineConfig
from repro.core import (
    M1Event,
    MonitoringEventDetector,
    TOPIC_COST,
    trimmed_average,
)
from repro.core.monitoring import MIN_WINDOW_EVENTS
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.base import EvalContext
from repro.grid import GridContext
from repro.policy.base import THRES_M_FLOOR
from repro.services import GridService


class RecordingService(GridService):
    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.received = []

    def on_notification(self, topic, payload, sender):
        self.received.append((topic, payload))


def make_detector(config=None, with_subscriber=True):
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")
    detector = MonitoringEventDetector(
        context, "m1", config or AdaptivityConfig(), CostModel())
    subscriber = None
    if with_subscriber:
        subscriber = RecordingService(context, "diag", "m2")
        detector.subscribe(TOPIC_COST, "diag")
    return context, detector, subscriber


def m1(cost, instance="compute:0", produced=10):
    return M1Event(instance_id=instance, subplan_id="compute",
                   machine_name="m1", cost_per_tuple_ms=cost,
                   avg_wait_ms=0.0, selectivity=1.0,
                   produced_total=produced, timestamp=0.0)


class TestTrimmedAverage:
    def test_drops_min_and_max(self):
        assert trimmed_average([1.0, 10.0, 100.0]) == 10.0
        assert trimmed_average([5.0, 1.0, 9.0, 5.0]) == 5.0

    def test_short_windows_use_plain_mean(self):
        assert trimmed_average([4.0]) == 4.0
        assert trimmed_average([2.0, 4.0]) == 3.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            trimmed_average([])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    min_size=3, max_size=50))
    def test_result_bounded_by_remaining_values(self, values):
        average = trimmed_average(values)
        ordered = sorted(values)
        assert ordered[1] - 1e-9 <= average <= ordered[-2] + 1e-9


class TestDetectorThresholds:
    def test_first_window_emits_once_min_events_reached(self):
        context, detector, subscriber = make_detector()
        for _ in range(MIN_WINDOW_EVENTS - 1):
            detector.submit_m1(m1(5.0))
        context.env.run()
        assert subscriber.received == []
        detector.submit_m1(m1(5.0))
        context.env.run()
        assert len(subscriber.received) == 1
        topic, payload = subscriber.received[0]
        assert topic == TOPIC_COST
        assert payload.kind == "m1"
        assert payload.average_value == pytest.approx(5.0)

    def test_counted_submission_is_that_many_observations(self):
        context, detector, subscriber = make_detector()
        detector.submit_m1(m1(5.0), count=3)
        context.env.run()
        assert detector.raw_events_received == 3
        assert len(subscriber.received) == 1

    def test_stable_average_stays_silent(self):
        context, detector, subscriber = make_detector()
        for _ in range(20):
            detector.submit_m1(m1(5.0))
        context.env.run()
        assert len(subscriber.received) == 1  # only the initial one

    def test_change_beyond_thres_m_notifies(self):
        context, detector, subscriber = make_detector()
        detector.submit_m1(m1(5.0))
        # Push the trimmed window mean >20% above the notified value.
        for _ in range(10):
            detector.submit_m1(m1(10.0))
        context.env.run()
        assert len(subscriber.received) >= 2
        assert subscriber.received[-1][1].average_value > 5.0 * 1.2

    def test_change_below_thres_m_is_filtered(self):
        context, detector, subscriber = make_detector()
        detector.submit_m1(m1(5.0))
        for _ in range(10):
            detector.submit_m1(m1(5.4))  # 8% drift, below 20%
        context.env.run()
        assert len(subscriber.received) == 1

    def test_windows_grouped_by_instance(self):
        context, detector, subscriber = make_detector()
        detector.submit_m1(m1(5.0, instance="compute:0"))
        detector.submit_m1(m1(50.0, instance="compute:1"))
        context.env.run()
        keys = {payload.key for _t, payload in subscriber.received}
        assert keys == {"m1|compute:0", "m1|compute:1"}

    def test_m2_groups_by_producer_and_recipient(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("xp:feed0:0", "compute:0:0", 25.0, 50)
        detector.submit_m2("xp:feed0:0", "compute:1:0", 30.0, 50)
        context.env.run()
        payloads = [payload for _t, payload in subscriber.received]
        assert {p.key for p in payloads} == {
            "m2|xp:feed0:0->compute:0:0", "m2|xp:feed0:0->compute:1:0"}
        # M2 value is cost per tuple.
        assert payloads[0].average_value == pytest.approx(0.5)

    def test_m2_with_zero_tuples_ignored(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("p", "c", 10.0, 0)
        context.env.run()
        assert subscriber.received == []

    def test_window_is_sliding_with_max_length(self):
        config = AdaptivityConfig(window_size=4)
        context, detector, subscriber = make_detector(config)
        for cost in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
            detector.submit_m1(m1(cost))
        context.env.run()
        # The last notification reflects only recent values.
        assert subscriber.received[-1][1].average_value == pytest.approx(1.0)

    def test_detector_charges_local_cpu(self):
        """Raw events arrive by local call, so the emitting fragment's
        thread pays for them: its CPU is busy for ``monitor + intake``
        per event, and the detector queues nothing itself."""
        context, detector, _subscriber = make_detector()
        cost = CostModel()
        cpu = context.machine("m1").cpu
        ctx = EvalContext(
            grid=context, machine=context.machine("m1"),
            metrics=SubplanMetrics("compute:0"), cost=cost,
            engine_config=EngineConfig(), monitor=detector)

        def emit(env):
            for _ in range(10):
                detector.submit_m1(m1(5.0))
                assert cpu.queue_length == 0
                yield from ctx.pay_handover(1)

        context.env.run(until=context.env.process(emit(context.env)))
        assert detector.intake_work(3) == 3 * cost.control_event_work
        assert cpu.busy_time == pytest.approx(
            10 * (cost.monitor_event_work + cost.control_event_work))
        assert cpu.tasks_completed == 10

    def test_counters(self):
        context, detector, _subscriber = make_detector()
        for _ in range(5):
            detector.submit_m1(m1(5.0))
        context.env.run()
        assert detector.raw_events_received == 5
        assert detector.cost_notifications_sent == 1


class TestZeroBaseline:
    """A notified average of zero (e.g. a co-located channel with no
    send cost) must not re-notify on every sub-epsilon wobble: the
    relative thresM gate is undefined at zero, so an absolute floor
    (``THRES_M_FLOOR``) takes over."""

    def test_zero_average_notified_once(self):
        context, detector, subscriber = make_detector()
        for _ in range(5):
            detector.submit_m2("p", "c", 0.0, 10)
        context.env.run()
        assert len(subscriber.received) == 1
        assert subscriber.received[0][1].average_value == 0.0

    def test_sub_floor_wobble_above_zero_stays_silent(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("p", "c", 0.0, 10)
        # Per-tuple cost 1e-10: far below the 1e-6 floor, but != 0, so
        # the pre-fix relative gate (undefined at zero) re-notified.
        detector.submit_m2("p", "c", 1e-8, 100)
        context.env.run()
        assert len(subscriber.received) == 1

    def test_change_above_floor_still_notifies(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("p", "c", 0.0, 10)
        detector.submit_m2("p", "c", 1e-8, 100)
        # A real cost appears; once the trimmed window mean clears the
        # floor the detector must speak up again.
        detector.submit_m2("p", "c", 100.0, 100)
        detector.submit_m2("p", "c", 100.0, 100)
        context.env.run()
        assert len(subscriber.received) == 2
        assert subscriber.received[-1][1].average_value > 1e-6

    def test_floor_is_the_notification_boundary(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("p", "c", 0.0, 10)
        # Window mean half the floor: silent.
        detector.submit_m2("p", "c", THRES_M_FLOOR * 10, 10)
        context.env.run()
        assert len(subscriber.received) == 1
        # Trimmed window mean (F + 4F) / 2 = 2.5 times the floor F:
        # notifies.
        detector.submit_m2("p", "c", THRES_M_FLOOR * 40, 10)
        detector.submit_m2("p", "c", THRES_M_FLOOR * 40, 10)
        context.env.run()
        assert len(subscriber.received) == 2


class TestDegenerateM2:
    """An empty buffer observes nothing: it must not be counted,
    charged to the CPU, or allowed to register window metadata."""

    def test_zero_tuples_not_counted_or_charged(self):
        context, detector, subscriber = make_detector()
        detector.submit_m2("p", "c", 10.0, 0)
        context.env.run()
        assert subscriber.received == []
        assert detector.raw_events_received == 0
        assert context.machine("m1").cpu.busy_time == 0.0
        assert detector._keys == {}

    def test_negative_tuple_count_also_ignored(self):
        context, detector, _subscriber = make_detector()
        detector.submit_m2("p", "c", 10.0, -3)
        context.env.run()
        assert detector.raw_events_received == 0

    def test_event_object_still_returned(self):
        context, detector, _subscriber = make_detector()
        event = detector.submit_m2("p", "c", 10.0, 0)
        assert event.tuple_count == 0
        assert event.producer_id == "p"
