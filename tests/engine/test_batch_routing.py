"""Unit tests for batch splitting in the distribution policies.

``route_batch`` must split a morsel exactly as ``len(rows)``
sequential ``route`` calls would — including for stateful policies
whose credits advance per routed row — while preserving per-channel
row order and first-appearance group order.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.tuples import Row, make_base_tid
from repro.engine.distribution import (
    PLAN_CACHE_SIZE,
    HashBucketPolicy,
    WeightedRoundRobin,
)


def make_rows(count, start=0):
    return [Row((f"v{start + i}",), make_base_tid("t", start + i))
            for i in range(count)]


def make_columnar(count, start=0):
    """A column-backed morsel with the content of ``make_rows``."""
    rows = make_rows(count, start)
    return Batch.from_columns([[row.values[0] for row in rows]],
                              [row.tid for row in rows])


#: Weights drawn from a small set tie often; so do equal credits.
WEIGHT = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(min_value=0.1,
                                                      max_value=10.0)


def reference_split(policy, rows):
    """Group rows by per-row route() calls, first-appearance order."""
    grouped = {}
    for row in rows:
        grouped.setdefault(policy.route(row), []).append(row)
    return list(grouped.items())


class TestWeightedRoundRobinBatches:
    @given(weights=st.lists(st.floats(min_value=0.1, max_value=10.0),
                            min_size=2, max_size=5),
           count=st.integers(min_value=1, max_value=200))
    def test_route_batch_equals_sequential_routes(self, weights, count):
        batch_policy = WeightedRoundRobin(len(weights), weights)
        row_policy = WeightedRoundRobin(len(weights), weights)
        rows = make_rows(count)
        assert batch_policy.route_batch(rows) == reference_split(
            row_policy, rows)
        # Credits advanced identically: the next row routes the same.
        probe = make_rows(1, start=count)[0]
        assert batch_policy.route(probe) == row_policy.route(probe)

    def test_zero_weight_clone_receives_nothing(self):
        policy = WeightedRoundRobin(3, [0.5, 0.5, 0.0])
        groups = dict(policy.route_batch(make_rows(100)))
        assert 2 not in groups
        assert sum(len(rows) for rows in groups.values()) == 100
        # The live clones split evenly.
        assert len(groups[0]) == len(groups[1]) == 50

    def test_single_clone_gets_the_whole_batch(self):
        policy = WeightedRoundRobin(1)
        rows = make_rows(25)
        assert policy.route_batch(rows) == [(0, rows)]

    def test_weights_changing_mid_batch(self):
        """A weight update between morsels affects only later morsels,
        exactly as it would between individual tuples."""
        batch_policy = WeightedRoundRobin(2, [0.5, 0.5])
        row_policy = WeightedRoundRobin(2, [0.5, 0.5])
        first, second = make_rows(30), make_rows(30, start=30)
        before = batch_policy.route_batch(first)
        assert before == reference_split(row_policy, first)
        batch_policy.update_weights([0.9, 0.1])
        row_policy.update_weights([0.9, 0.1])
        after = batch_policy.route_batch(second)
        assert after == reference_split(row_policy, second)
        counts = {index: len(rows) for index, rows in after}
        assert counts[0] == 27 and counts[1] == 3

    def test_groups_preserve_per_channel_order(self):
        policy = WeightedRoundRobin(2, [0.7, 0.3])
        rows = make_rows(40)
        for _index, group in policy.route_batch(rows):
            positions = [rows.index(row) for row in group]
            assert positions == sorted(positions)


class TestWeightedRoundRobinColumnar:
    """The credit walk over a column-backed morsel, which builds no
    ``Row``, against the same rows routed one by one by ``route``."""

    @given(data=st.data(), consumers=st.integers(min_value=2, max_value=5),
           first=st.integers(min_value=1, max_value=40),
           second=st.integers(min_value=1, max_value=40))
    def test_columnar_walk_equals_sequential_routes(self, data, consumers,
                                                    first, second):
        def weights():
            return data.draw(st.lists(WEIGHT, min_size=consumers,
                                      max_size=consumers).filter(sum))

        initial = weights()
        batch_policy = WeightedRoundRobin(consumers, initial)
        row_policy = WeightedRoundRobin(consumers, initial)
        start = 0
        for count in (first, second):
            morsel = make_columnar(count, start)
            groups = batch_policy.route_batch(morsel)
            assert all(isinstance(group, Batch) and group.is_columnar
                       for _index, group in groups)
            assert [(index, list(group)) for index, group in groups] == (
                reference_split(row_policy, make_rows(count, start)))
            start += count
            # A weight update between morsels, as the Responder makes.
            update = weights()
            batch_policy.update_weights(update)
            row_policy.update_weights(update)
        # The credits advanced identically: the next row routes alike.
        probe = make_rows(1, start=start)[0]
        assert batch_policy.route(probe) == row_policy.route(probe)
        assert batch_policy._credit == row_policy._credit

    def test_equal_weights_tie_to_the_lowest_index(self):
        # Quarters are exact, so every route ties the highest credits.
        policy = WeightedRoundRobin(4)
        groups = policy.route_batch(make_columnar(8))
        assert [(index, [row.values[0] for row in group])
                for index, group in groups] == [
            (0, ["v0", "v4"]), (1, ["v1", "v5"]), (2, ["v2", "v6"]),
            (3, ["v3", "v7"])]


def count_walks(policy):
    """Record the row count of every plan ``policy`` walks (a miss)."""
    walks = []
    walk = policy._walk

    def counted(count):
        walks.append(count)
        return walk(count)

    policy._walk = counted
    return walks


def route_alike(batch_policy, row_policy, count, start):
    """Route ``count`` rows both ways; assert groups, order, credits."""
    groups = batch_policy.route_batch(make_columnar(count, start))
    assert all(isinstance(group, Batch) and group.is_columnar
               for _index, group in groups)
    assert [(index, list(group)) for index, group in groups] == (
        reference_split(row_policy, make_rows(count, start)))
    assert batch_policy._credit == row_policy._credit
    return start + count


class TestWeightedRoundRobinPlanCache:
    """A column-backed morsel routes from a plan cached under the
    credits and the row count; every hit must equal the walk."""

    #: Weights whose credits recur: sums are powers of two, so every
    #: normalised weight and every credit is exact.
    RECURRING = ([1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                 [3.0, 1.0], [1.0, 1.0, 2.0, 2.0, 2.0])

    @given(data=st.data(), consumers=st.integers(min_value=2, max_value=5),
           sizes=st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 32]),
                          min_size=1, max_size=4),
           rounds=st.integers(min_value=2, max_value=6))
    def test_repeated_morsels_route_as_sequential_routes(
            self, data, consumers, sizes, rounds):
        weights = data.draw(st.lists(WEIGHT, min_size=consumers,
                                     max_size=consumers).filter(sum))
        batch_policy = WeightedRoundRobin(consumers, weights)
        row_policy = WeightedRoundRobin(consumers, weights)
        start = 0
        for _round in range(rounds):
            for count in sizes:
                start = route_alike(batch_policy, row_policy, count, start)
        # A weight update right after the last (often a hit) morsel.
        update = data.draw(st.lists(WEIGHT, min_size=consumers,
                                    max_size=consumers).filter(sum))
        batch_policy.update_weights(update)
        row_policy.update_weights(update)
        for count in sizes:
            start = route_alike(batch_policy, row_policy, count, start)
        probe = make_rows(1, start=start)[0]
        assert batch_policy.route(probe) == row_policy.route(probe)
        assert batch_policy._credit == row_policy._credit

    def test_recurring_credit_states_hit_the_cache(self):
        for weights in self.RECURRING:
            consumers = len(weights)
            batch_policy = WeightedRoundRobin(consumers, weights)
            row_policy = WeightedRoundRobin(consumers, weights)
            walks = count_walks(batch_policy)
            start = 0
            for _round in range(20):
                for count in (32, 18, 1, 3):
                    start = route_alike(batch_policy, row_policy, count,
                                        start)
            # 80 morsels over a few recurring states: most are hits.
            assert len(walks) <= 20, (weights, len(walks))
            assert len(walks) == len(batch_policy._plans)

    def test_stride_and_scattered_targets(self):
        # [3, 1]: consumer 1 takes every fourth row from the third (a
        # stride), consumer 0 the rest (no stride); both gather from
        # the plan, and the stride's last row is row 14.
        batch_policy = WeightedRoundRobin(2, [3.0, 1.0])
        row_policy = WeightedRoundRobin(2, [3.0, 1.0])
        walks = count_walks(batch_policy)
        start = 0
        for _round in range(3):
            start = route_alike(batch_policy, row_policy, 16, start)
        assert walks == [16]
        (_credits, groups), = batch_policy._plans.values()
        plans = dict(groups)
        assert plans[1] == slice(2, 15, 4)
        assert plans[0] == [0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15]

    def test_a_plan_is_keyed_by_the_row_count(self):
        # Halves are exact: two rows bring the credits back to zero, so
        # morsels of 2 and 5 rows start from the same credit state.
        batch_policy = WeightedRoundRobin(2)
        row_policy = WeightedRoundRobin(2)
        start = 0
        for count in (2, 2, 5, 1, 2, 5):
            start = route_alike(batch_policy, row_policy, count, start)

    def test_an_update_right_after_a_hit_is_routed_afresh(self):
        batch_policy = WeightedRoundRobin(2)
        row_policy = WeightedRoundRobin(2)
        walks = count_walks(batch_policy)
        start = route_alike(batch_policy, row_policy, 2, 0)
        start = route_alike(batch_policy, row_policy, 2, start)
        assert walks == [2]  # the second morsel was a hit
        # The credits are back at zero, the plan's key: a stale plan
        # would split these rows half and half.
        batch_policy.update_weights([0.9, 0.1])
        row_policy.update_weights([0.9, 0.1])
        assert not batch_policy._plans
        start = route_alike(batch_policy, row_policy, 2, start)
        assert walks == [2, 2]

    def test_the_cache_stops_at_its_size_limit(self):
        batch_policy = WeightedRoundRobin(3, [1.0, 2.0, 4.0])
        row_policy = WeightedRoundRobin(3, [1.0, 2.0, 4.0])
        start = 0
        # Every row count is new, so every morsel is a distinct key.
        for count in range(1, PLAN_CACHE_SIZE + 11):
            start = route_alike(batch_policy, row_policy, count, start)
        assert len(batch_policy._plans) == PLAN_CACHE_SIZE


class TestHashBucketBatches:
    @given(count=st.integers(min_value=1, max_value=200),
           consumers=st.integers(min_value=1, max_value=4))
    def test_route_batch_equals_sequential_routes(self, count, consumers):
        policy = HashBucketPolicy(consumers, key_position=0, bucket_count=16)
        rows = make_rows(count)
        assert policy.route_batch(rows) == reference_split(policy, rows)

    def test_zero_weight_clone_receives_nothing(self):
        policy = HashBucketPolicy(3, key_position=0, bucket_count=12,
                                  weights=[0.5, 0.5, 0.0])
        groups = dict(policy.route_batch(make_rows(200)))
        assert 2 not in groups

    def test_equal_keys_stay_on_one_clone_across_batches(self):
        policy = HashBucketPolicy(2, key_position=0, bucket_count=16)
        rows = [Row(("k",), make_base_tid("t", i)) for i in range(10)]
        first = policy.route_batch(rows[:5])
        second = policy.route_batch(rows[5:])
        assert len(first) == len(second) == 1
        assert first[0][0] == second[0][0]

    def test_bucket_map_update_mid_batch_stream(self):
        policy = HashBucketPolicy(2, key_position=0, bucket_count=8)
        rows = make_rows(50)
        before = dict(policy.route_batch(rows))
        # Move all buckets to consumer 1: later batches follow the map.
        policy.update_weights([0.0, 1.0], bucket_map=[1] * 8)
        after = dict(policy.route_batch(rows))
        assert set(after) == {1}
        assert sum(len(g) for g in before.values()) == 50
