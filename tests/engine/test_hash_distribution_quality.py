"""Statistical quality checks on hash-based distribution."""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.distribution import HashBucketPolicy, stable_hash


def route(policy, row):
    """``row``'s consumer, routed as a one-row morsel."""
    ((index, _group),) = policy.route_batch(Batch.from_rows([row]))
    return index


def test_stable_hash_spreads_orf_keys_evenly():
    """The demo keys must not collide into few buckets."""
    keys = [f"Y{chr(65 + i % 16)}L{i:03d}C-{i}" for i in range(4000)]
    buckets = collections.Counter(stable_hash(k) % 256 for k in keys)
    assert len(buckets) == 256
    # No bucket holds more than 3x its fair share.
    assert max(buckets.values()) < 3 * (4000 / 256)


def test_policy_load_tracks_weights_for_realistic_keys():
    policy = HashBucketPolicy(2, key_position=0, bucket_count=256,
                              weights=[0.25, 0.75])
    counts = collections.Counter()
    for i in range(4000):
        row = Row((f"YAL{i:04d}W-{i}",), f"t#{i}")
        counts[route(policy, row)] += 1
    share = counts[1] / 4000
    assert 0.68 <= share <= 0.82  # 0.75 within hash noise


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1,
                max_size=200, unique=True),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=30)
def test_every_key_routes_to_exactly_one_consumer(keys, consumers):
    policy = HashBucketPolicy(consumers, key_position=0, bucket_count=64)
    for index, key in enumerate(keys):
        row = Row((key,), f"t#{index}")
        first = route(policy, row)
        second = route(policy, row)
        assert first == second
        assert 0 <= first < consumers


@given(st.integers(min_value=2, max_value=5))
@settings(max_examples=20)
def test_rebalanced_policy_keeps_keys_consistent(consumers):
    """After any weight update, equal keys still share a consumer."""
    policy = HashBucketPolicy(consumers, key_position=0, bucket_count=64)
    rows = [Row((f"key-{i}",), f"t#{i}") for i in range(50)]
    policy.update_weights([1.0] + [0.1] * (consumers - 1))
    routes = {row.tid: route(policy, row) for row in rows}
    for row in rows:
        assert route(policy, row) == routes[row.tid]
