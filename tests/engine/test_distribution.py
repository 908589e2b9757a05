"""Unit and property tests for distribution policies and weight maths."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.distribution import (
    HashBucketPolicy,
    WeightedRoundRobin,
    assign_buckets,
    inverse_cost_weights,
    max_relative_change,
    normalise_weights,
    rebalance_buckets,
    rebalance_outstanding,
    stable_hash,
)
from repro.errors import AdaptationError


def route(policy, row):
    """``row``'s consumer, routed as a one-row morsel."""
    ((index, _group),) = policy.route_batch(Batch.from_rows([row]))
    return index


def make_rows(count, key=None):
    return [Row((key if key is not None else f"k{i}",), f"t#{i}")
            for i in range(count)]


class TestWeightMaths:
    def test_normalise_scales_to_one(self):
        assert normalise_weights([2.0, 2.0]) == [0.5, 0.5]
        assert sum(normalise_weights([1, 2, 3])) == pytest.approx(1.0)

    def test_normalise_rejects_bad_vectors(self):
        with pytest.raises(AdaptationError):
            normalise_weights([])
        with pytest.raises(AdaptationError):
            normalise_weights([0.0, 0.0])
        with pytest.raises(AdaptationError):
            normalise_weights([1.0, -0.1])

    def test_inverse_cost_weights_balances_paper_example(self):
        # A machine 10x costlier gets ~1/11 of the load (paper §3.1).
        weights = inverse_cost_weights([10.0, 1.0])
        assert weights[0] == pytest.approx(1 / 11)
        assert weights[1] == pytest.approx(10 / 11)

    def test_inverse_cost_weights_rejects_non_positive(self):
        with pytest.raises(AdaptationError):
            inverse_cost_weights([1.0, 0.0])

    def test_max_relative_change(self):
        assert max_relative_change([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert max_relative_change([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.2)
        assert max_relative_change([0.0, 1.0], [0.1, 0.9]) == float("inf")

    def test_max_relative_change_length_mismatch(self):
        with pytest.raises(AdaptationError):
            max_relative_change([0.5], [0.5, 0.5])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=8))
    def test_normalise_property(self, weights):
        normalised = normalise_weights(weights)
        assert sum(normalised) == pytest.approx(1.0)
        assert all(w >= 0 for w in normalised)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=2, max_size=8))
    def test_inverse_cost_order_property(self, costs):
        """Cheaper instances always get at least as much weight."""
        weights = inverse_cost_weights(costs)
        ranked = sorted(zip(costs, weights))
        for (c1, w1), (c2, w2) in zip(ranked, ranked[1:]):
            assert w1 >= w2 - 1e-12

    def test_stable_hash_is_deterministic(self):
        assert stable_hash("YAL001C") == stable_hash("YAL001C")
        assert stable_hash("a") != stable_hash("b")


class TestWeightedRoundRobin:
    def test_uniform_weights_alternate(self):
        policy = WeightedRoundRobin(2)
        routes = [route(policy, row) for row in make_rows(10)]
        assert routes.count(0) == 5
        assert routes.count(1) == 5

    def test_weighted_interleaving_tracks_weights(self):
        policy = WeightedRoundRobin(2, [0.75, 0.25])
        routes = [route(policy, row) for row in make_rows(100)]
        assert routes.count(0) == 75
        assert routes.count(1) == 25

    def test_smoothness_no_long_bursts(self):
        # Smooth WRR with weights 2:1 never sends 3 in a row to one
        # consumer.
        policy = WeightedRoundRobin(2, [2.0, 1.0])
        routes = [route(policy, row) for row in make_rows(60)]
        for i in range(len(routes) - 2):
            assert len(set(routes[i:i + 3])) > 1

    def test_update_weights_changes_ratio(self):
        policy = WeightedRoundRobin(2)
        policy.update_weights([0.9, 0.1])
        routes = [route(policy, row) for row in make_rows(100)]
        assert routes.count(0) == 90

    def test_mismatched_weight_length_rejected(self):
        with pytest.raises(AdaptationError):
            WeightedRoundRobin(2, [1.0, 1.0, 1.0])

    @given(st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=5),
           st.integers(min_value=50, max_value=300))
    @settings(max_examples=30)
    def test_realised_ratio_matches_weights_property(self, weights, count):
        policy = WeightedRoundRobin(len(weights), weights)
        routes = [route(policy, row) for row in make_rows(count)]
        counter = collections.Counter(routes)
        expected = normalise_weights(weights)
        for consumer, weight in enumerate(expected):
            assert counter.get(consumer, 0) == pytest.approx(
                weight * count, abs=len(weights))

    def test_update_weights_preserves_credits(self):
        # Re-installing the same weights before every route must not
        # disturb the interleaving: zeroed credits made every consumer
        # tie, so max() always picked consumer 0 and frequent
        # rebalances sent the whole stream there.
        policy = WeightedRoundRobin(2)
        routes = []
        for row in make_rows(40):
            policy.update_weights([0.5, 0.5])
            routes.append(route(policy, row))
        assert routes.count(0) == 20
        assert routes.count(1) == 20

    def test_post_update_prefix_tracks_new_weights(self):
        policy = WeightedRoundRobin(3)
        for row in make_rows(30):
            route(policy, row)
        policy.update_weights([0.7, 0.2, 0.1])
        routes = [route(policy, row) for row in make_rows(20)]
        counter = collections.Counter(routes)
        assert counter[0] == pytest.approx(14, abs=1)
        assert counter[1] == pytest.approx(4, abs=1)
        assert counter[2] == pytest.approx(2, abs=1)

    @given(st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=4),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=4),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=30)
    def test_repeated_updates_never_burst_property(self, w1, w2, prefix):
        length = min(len(w1), len(w2))
        w1, w2 = w1[:length], w2[:length]
        policy = WeightedRoundRobin(length, w1)
        for row in make_rows(prefix):
            route(policy, row)
        policy.update_weights(w2)
        count = 60
        routes = [route(policy, row) for row in make_rows(count)]
        counter = collections.Counter(routes)
        expected = normalise_weights(w2)
        # The realised post-update ratio tracks the new weights within
        # the usual smooth-WRR slack plus the carried-over credit.
        for consumer, weight in enumerate(expected):
            assert counter.get(consumer, 0) == pytest.approx(
                weight * count, abs=length + 2)


class TestHashBucketPolicy:
    def test_same_key_same_consumer(self):
        policy = HashBucketPolicy(3, key_position=0, bucket_count=64)
        row_a = Row(("YAL001C",), "t#1")
        row_b = Row(("YAL001C",), "t#2")
        assert route(policy, row_a) == route(policy, row_b)

    def test_initial_map_proportional_to_weights(self):
        policy = HashBucketPolicy(2, 0, bucket_count=100,
                                  weights=[0.7, 0.3])
        counts = collections.Counter(policy.bucket_map)
        assert counts[0] == 70
        assert counts[1] == 30

    def test_update_weights_minimal_movement(self):
        policy = HashBucketPolicy(2, 0, bucket_count=100)
        before = list(policy.bucket_map)
        policy.update_weights([0.6, 0.4])
        moved = sum(1 for a, b in zip(before, policy.bucket_map) if a != b)
        assert moved == 10  # exactly the surplus, nothing else

    def test_update_with_explicit_map(self):
        policy = HashBucketPolicy(2, 0, bucket_count=8)
        explicit = [1, 1, 1, 1, 0, 0, 0, 0]
        policy.update_weights([0.5, 0.5], bucket_map=explicit)
        assert policy.bucket_map == explicit

    def test_bad_explicit_map_rejected(self):
        policy = HashBucketPolicy(2, 0, bucket_count=8)
        with pytest.raises(AdaptationError):
            policy.update_weights([0.5, 0.5], bucket_map=[0, 1])  # too short
        with pytest.raises(AdaptationError):
            policy.update_weights([0.5, 0.5], bucket_map=[7] * 8)  # bad ref

    @pytest.mark.parametrize("bad", [-1, 2], ids=["below", "above"])
    def test_out_of_range_map_rejected(self, bad):
        """One entry outside ``[0, consumers)`` anywhere in the map."""
        for position in (0, 3, 7):
            explicit = [0, 1] * 4
            explicit[position] = bad
            with pytest.raises(AdaptationError, match="unknown consumer"):
                HashBucketPolicy(2, 0, bucket_count=8, bucket_map=explicit)
            policy = HashBucketPolicy(2, 0, bucket_count=8)
            with pytest.raises(AdaptationError, match="unknown consumer"):
                policy.update_weights([0.5, 0.5], bucket_map=explicit)

    def test_bucket_count_must_cover_consumers(self):
        with pytest.raises(AdaptationError):
            HashBucketPolicy(10, 0, bucket_count=5)


class TestBucketAssignment:
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0),
                    min_size=1, max_size=6),
           st.integers(min_value=8, max_value=512))
    @settings(max_examples=50)
    def test_assignment_is_complete_and_proportional(self, weights,
                                                     bucket_count):
        if bucket_count < len(weights):
            bucket_count = len(weights)
        bucket_map = assign_buckets(weights, bucket_count)
        assert len(bucket_map) == bucket_count
        counts = collections.Counter(bucket_map)
        expected = normalise_weights(weights)
        for consumer, weight in enumerate(expected):
            assert abs(counts.get(consumer, 0) - weight * bucket_count) <= \
                len(weights)

    @given(st.integers(min_value=2, max_value=5),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=5),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=5))
    @settings(max_examples=50)
    def test_rebalance_moves_minimum_buckets(self, consumers, w1, w2):
        length = min(len(w1), len(w2), consumers)
        if length < 2:
            return
        w1, w2 = w1[:length], w2[:length]
        current = assign_buckets(w1, 120)
        rebalanced = rebalance_buckets(current, w2)
        # Target counts respected exactly.
        target = collections.Counter(assign_buckets(w2, 120))
        actual = collections.Counter(rebalanced)
        assert sum(actual.values()) == 120
        for consumer in range(length):
            assert abs(actual.get(consumer, 0)
                       - target.get(consumer, 0)) <= 1
        # Movement is one-directional: no consumer both gains and
        # loses buckets.
        gains = collections.Counter()
        losses = collections.Counter()
        for before, after in zip(current, rebalanced):
            if before != after:
                losses[before] += 1
                gains[after] += 1
        assert not (set(gains) & set(losses))


class TestRebalanceOutstanding:
    def test_moves_excess_to_deficit(self):
        assignments = {0: make_rows(90), 1: []}
        moves = rebalance_outstanding(assignments, [0.5, 0.5])
        moved = moves.get(0, [])
        assert len(moved) == 45
        assert all(target == 1 for _row, target in moved)

    def test_balanced_input_requires_no_moves(self):
        assignments = {0: make_rows(50), 1: make_rows(50)}
        assert rebalance_outstanding(assignments, [0.5, 0.5]) == {}

    def test_empty_outstanding(self):
        assert rebalance_outstanding({0: [], 1: []}, [0.5, 0.5]) == {}

    def test_moves_most_recent_tuples_first(self):
        rows = make_rows(10)
        moves = rebalance_outstanding({0: rows, 1: []}, [0.5, 0.5])
        moved_tids = [row.tid for row, _t in moves[0]]
        # The most recently assigned (end of list) move first.
        assert moved_tids == [r.tid for r in rows[::-1][:5]]

    @given(st.lists(st.integers(min_value=0, max_value=60),
                    min_size=2, max_size=5),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=5))
    @settings(max_examples=50)
    def test_post_move_distribution_matches_weights(self, counts, weights):
        length = min(len(counts), len(weights))
        counts, weights = counts[:length], weights[:length]
        assignments = {}
        serial = 0
        for consumer, count in enumerate(counts):
            rows = []
            for _ in range(count):
                rows.append(Row((f"k{serial}",), f"t#{serial}"))
                serial += 1
            assignments[consumer] = rows
        moves = rebalance_outstanding(assignments, weights)
        final = {c: len(rows) for c, rows in assignments.items()}
        for source, source_moves in moves.items():
            final[source] -= len(source_moves)
            for _row, target in source_moves:
                final[target] += 1
        total = sum(final.values())
        expected = normalise_weights(weights)
        for consumer in range(length):
            assert abs(final[consumer] - expected[consumer] * total) <= 1.5

    @given(st.lists(st.one_of(st.none(),
                              st.integers(min_value=0, max_value=40)),
                    min_size=2, max_size=6),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_consumers_missing_from_assignments_property(self, counts,
                                                         weights):
        # A consumer added by a previous adaptation may have no
        # outstanding tuples yet and thus no key in ``assignments``;
        # it must still receive its weight share.
        length = min(len(counts), len(weights))
        counts, weights = counts[:length], weights[:length]
        assignments = {}
        serial = 0
        for consumer, count in enumerate(counts):
            if count is None:
                continue  # consumer entirely absent from the mapping
            rows = []
            for _ in range(count):
                rows.append(Row((f"k{serial}",), f"t#{serial}"))
                serial += 1
            assignments[consumer] = rows
        total = sum(len(rows) for rows in assignments.values())
        moves = rebalance_outstanding(assignments, weights)
        if total == 0:
            assert moves == {}
            return
        expected = normalise_weights(weights)
        quota = {c: expected[c] * total for c in range(length)}
        final = {c: len(assignments.get(c, ())) for c in range(length)}
        seen_tids = set()
        for source, source_moves in moves.items():
            source_tids = {row.tid for row in assignments[source]}
            # A source only gives tuples away when it is over quota.
            assert len(assignments[source]) > quota[source] - 1.0
            for row, target in source_moves:
                assert 0 <= target < length
                assert target != source
                assert row.tid in source_tids
                assert row.tid not in seen_tids  # each row moves once
                seen_tids.add(row.tid)
                # Every move lands on a receiver that still had a
                # deficit against its weight target.
                assert final[target] < quota[target] + 1.0
                final[source] -= 1
                final[target] += 1
        assert sum(final.values()) == total
        for consumer in range(length):
            assert abs(final[consumer] - quota[consumer]) <= 1.0 + 1e-9
