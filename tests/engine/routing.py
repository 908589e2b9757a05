"""Per-row routing: the oracle the batch policies are checked against.

The engine routes whole morsels (``DistributionPolicy.route_batch``);
these helpers route one ``Row`` at a time the way the policies are
specified, so a test can compare a morsel's split, and the credits it
leaves, with the same tuples routed one by one.
"""

from repro.engine.distribution import HashBucketPolicy


def route(policy, row):
    """The consumer index of ``row``, advancing round-robin credits as
    one routed tuple does."""
    if isinstance(policy, HashBucketPolicy):
        return policy.bucket_map[
            policy.bucket_of(row.values[policy.key_position])]
    credit = policy._credit
    for index in range(policy.consumer_count):
        credit[index] += policy.weights[index]
    best = max(range(policy.consumer_count), key=lambda i: credit[i])
    credit[best] -= 1.0
    return best


def route_rows(policy, rows):
    """Group ``rows`` by per-row :func:`route` calls, in first-appearance
    order, each group in row order."""
    grouped = {}
    for row in rows:
        grouped.setdefault(route(policy, row), []).append(row)
    return list(grouped.items())
