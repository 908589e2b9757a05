"""White-box tests of the exchange protocol over a deployed query.

These run a real query and then inspect the runtime's producers and
consumers: buffering, checkpoint/acknowledgement flow, recovery-log
pruning, end-of-stream announcements and retrospective discards.
"""

from repro.config import AdaptivityConfig, RESPONSE_R1
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24)


def deploy_and_run(query, adaptivity, perturb=None, spec=SPEC):
    grid = DemoGrid(spec)
    if perturb:
        perturb(grid)
    handle = grid.processor.gdqs.submit(query, adaptivity)
    runtime = handle.runtime  # the handle lets go at the outcome
    grid.context.env.run(until=handle.done)
    grid.context.env.run()
    return grid, runtime, handle.result


def counter(grid, name, **labels):
    """A count the exchange keeps only in the metrics registry."""
    return grid.context.metrics.find("counter", name, **labels).value


class TestStaticProtocol:
    def test_feed_producer_attributes_every_tuple(self):
        _grid, runtime, _result = deploy_and_run(
            Q1, AdaptivityConfig.disabled())
        feed = runtime.feed_producers[0][1]
        assert feed.routed_total == 150
        assert sum(feed.sent_per_consumer) == 150
        assert feed.finished

    def test_buffers_sent_matches_buffer_size(self):
        grid, runtime, _result = deploy_and_run(
            Q1, AdaptivityConfig.disabled())
        feed = runtime.feed_producers[0][1]
        # 150 tuples, 2 consumers x 75, buffer 50 => 2 buffers per
        # consumer (one full, one partial).
        assert counter(grid, "exchange_buffers_sent",
                       producer=feed.producer_id) == 4

    def test_channel_announcements_complete_all_consumers(self):
        _grid, runtime, _result = deploy_and_run(
            Q1, AdaptivityConfig.disabled())
        for fragment in runtime.compute_fragments:
            for consumer in fragment.consumers.values():
                assert consumer.is_complete()
                assert len(consumer.queue) == 0

    def test_checkpoints_acknowledged_and_logs_pruned(self):
        # R1 config so recovery logging is on.
        grid = DemoGrid(SPEC, engine_config=None)
        from repro.experiments.harness import engine_config_for
        adaptivity = AdaptivityConfig(response=RESPONSE_R1,
                                      decision_latency_ms=100.0)
        grid = DemoGrid(SPEC, engine_config=engine_config_for(adaptivity))
        handle = grid.processor.gdqs.submit(Q1, adaptivity)
        runtime = handle.runtime
        grid.context.env.run(until=handle.done)
        grid.context.env.run()
        feed = runtime.feed_producers[0][1]
        logs = feed._logs
        for consumer_index, log in enumerate(logs):
            assert log is not None
            # Everything up to the last checkpoint was acknowledged;
            # only the tail after the final checkpoint may remain.
            assert len(log) < 50, consumer_index

    def test_acks_sent_by_consumers(self):
        from repro.experiments.harness import engine_config_for
        adaptivity = AdaptivityConfig(response=RESPONSE_R1,
                                      decision_latency_ms=100.0)
        grid = DemoGrid(SPEC, engine_config=engine_config_for(adaptivity))
        handle = grid.processor.gdqs.submit(Q1, adaptivity)
        runtime = handle.runtime
        grid.context.env.run(until=handle.done)
        grid.context.env.run()
        total_acks = sum(
            consumer.acks_sent
            for fragment in runtime.compute_fragments
            for consumer in fragment.consumers.values())
        # 75 tuples per channel with checkpoint interval 50 -> 1 ack each.
        assert total_acks == 2

    def test_sink_consumer_sees_all_compute_producers(self):
        _grid, runtime, _result = deploy_and_run(
            Q1, AdaptivityConfig.disabled())
        sink_consumer = runtime.sink.child
        assert sorted(sink_consumer.expected_producers) == [
            "xp:compute:0", "xp:compute:1"]
        assert sink_consumer.is_complete()

    def test_quiescence_after_completion(self):
        _grid, runtime, _result = deploy_and_run(
            Q1, AdaptivityConfig.disabled())
        assert all(gqes.is_quiescent() for gqes in runtime.all_gqes())


class TestRetrospectiveProtocol:
    def run_r1(self, query, perturb):
        adaptivity = AdaptivityConfig(response=RESPONSE_R1,
                                      decision_latency_ms=100.0)
        return deploy_and_run(query, adaptivity, perturb=perturb)

    def test_discards_reach_the_old_consumer(self):
        grid, runtime, _result = self.run_r1(
            Q1, lambda g: perturb_ws_cost(g, 12.0))
        discarded = sum(counter(grid, "exchange_rows_discarded",
                                channel=consumer.channel_key)
                        for fragment in runtime.compute_fragments
                        for consumer in fragment.consumers.values())
        assert discarded > 0

    def test_moved_tuples_leave_old_log_and_enter_new(self):
        _grid, runtime, _result = self.run_r1(
            Q1, lambda g: perturb_ws_cost(g, 12.0))
        feed = runtime.feed_producers[0][1]
        assert feed.tuples_moved > 0
        # Attribution is disjoint across channels.
        attributed = [set(tids) for tids in feed.protocol.attributed]
        assert not (attributed[0] & attributed[1])

    def test_announcement_revisions_increase_on_reattribution(self):
        _grid, runtime, _result = self.run_r1(
            Q1, lambda g: perturb_ws_cost(g, 12.0))
        feed = runtime.feed_producers[0][1]
        assert max(feed.protocol.revision) >= 1

    def test_join_state_moves_with_buckets(self):
        _grid, runtime, _result = self.run_r1(
            Q2, lambda g: perturb_join_sleep(g, 15.0))
        joins = [fragment.state_operators[key]
                 for fragment in runtime.compute_fragments
                 for key in fragment.state_operators]
        total_state = sum(join.build_count for join in joins)
        # Replayed build tuples are counted again at their new host.
        assert total_state >= 150
        moved = sum(p.tuples_moved
                    for _e, p in runtime.feed_producers)
        assert moved > 0

    def test_epoch_guard_rejects_stale_updates(self):
        grid, runtime, _result = self.run_r1(
            Q1, lambda g: perturb_ws_cost(g, 12.0))
        feed = runtime.feed_producers[0][1]
        assert feed.protocol.applied_epoch == counter(
            grid, "exchange_adaptations_applied", producer=feed.producer_id)

    def test_quiescent_after_adaptive_run(self):
        _grid, runtime, _result = self.run_r1(
            Q2, lambda g: perturb_join_sleep(g, 15.0))
        assert all(gqes.is_quiescent() for gqes in runtime.all_gqes())
