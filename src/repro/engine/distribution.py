"""Tuple distribution policies for exchange producers.

Two policies implement the workload vector ``W`` of §3.1:

* :class:`WeightedRoundRobin` for stateless subplans (Q1's WS calls):
  a smooth weighted round-robin that interleaves consumers so the
  realised tuple ratio tracks the weights at any prefix.
* :class:`HashBucketPolicy` for stateful subplans (Q2's hash join):
  keys hash into a fixed set of buckets, and buckets are assigned to
  consumers proportionally to the weights (the Flux-style indirection
  the paper's "hash function applied to the join attribute" needs to
  be re-balanceable).  Reassignment moves as few buckets as possible,
  and operator state moves with its buckets.

Weight vectors are normalised, validated and comparable through the
module helpers, which the Diagnoser also uses.
"""

from __future__ import annotations

import abc
import typing
import zlib

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.errors import AdaptationError


def normalise_weights(weights: typing.Sequence[float]) -> list[float]:
    """Scale ``weights`` to sum to 1, validating the input."""
    if not weights:
        raise AdaptationError("empty weight vector")
    if any(w < 0 for w in weights):
        raise AdaptationError(f"negative weight in {list(weights)}")
    total = sum(weights)
    if total <= 0:
        raise AdaptationError(f"weight vector sums to zero: {list(weights)}")
    return [w / total for w in weights]


def inverse_cost_weights(costs: typing.Sequence[float]) -> list[float]:
    """The balanced vector W' with ``w_i`` inversely proportional to
    the per-tuple cost ``c(p_i)`` (§3.1, Assessment)."""
    if any(c <= 0 for c in costs):
        raise AdaptationError(f"costs must be positive: {list(costs)}")
    return normalise_weights([1.0 / c for c in costs])


def max_relative_change(old: typing.Sequence[float],
                        new: typing.Sequence[float]) -> float:
    """max_i |w'_i - w_i| / w_i — the quantity compared to thresA."""
    if len(old) != len(new):
        raise AdaptationError(
            f"weight vectors differ in length: {len(old)} vs {len(new)}")
    worst = 0.0
    for w_old, w_new in zip(old, new):
        if w_old <= 0:
            if w_new > 0:
                return float("inf")
            continue
        worst = max(worst, abs(w_new - w_old) / w_old)
    return worst


def stable_hash(key: typing.Any) -> int:
    """Deterministic hash (CRC32) independent of PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


class DistributionPolicy(abc.ABC):
    """Maps each tuple to a consumer index under the current weights."""

    def __init__(self, consumer_count: int,
                 weights: typing.Sequence[float] | None = None) -> None:
        if consumer_count < 1:
            raise AdaptationError(
                f"need at least one consumer: {consumer_count}")
        self.consumer_count = consumer_count
        if weights is None:
            weights = [1.0] * consumer_count
        if len(weights) != consumer_count:
            raise AdaptationError(
                f"{len(weights)} weights for {consumer_count} consumers")
        self.weights = normalise_weights(weights)

    @abc.abstractmethod
    def route(self, row: Row) -> int:
        """Consumer index for ``row``."""

    def route_batch(self, rows: typing.Sequence[Row]
                    ) -> list[tuple[int, typing.Sequence[Row]]]:
        """Split a batch by destination, preserving per-channel order.

        Routes the rows in sequence — so stateful policies (round-robin
        credits) advance exactly as ``len(rows)`` :meth:`route` calls
        would — and returns ``(consumer_index, rows)`` groups in
        first-appearance order.  A batch under a changing weight vector
        therefore splits identically to the same rows routed one by one.

        ``rows`` may be a :class:`~repro.data.batch.Batch`; a group's
        row container may likewise be a ``Batch`` (the single-consumer
        pass-through), so callers must not assume ``list``.  The
        returned list is new on every call: a caller may extend it.
        """
        grouped: dict[int, list[Row]] = {}
        for row in rows:
            grouped.setdefault(self.route(row), []).append(row)
        return list(grouped.items())

    @abc.abstractmethod
    def update_weights(self, weights: typing.Sequence[float]) -> None:
        """Install a new workload vector."""


#: Route plans a :class:`WeightedRoundRobin` keeps per weight vector;
#: past it, a new credit state is walked and not kept (decision 46).
PLAN_CACHE_SIZE = 64


def _stride(positions: list[int]) -> "list[int] | slice":
    """``positions`` as a slice when they form one, else unchanged."""
    first, last = positions[0], positions[-1]
    step = positions[1] - first if len(positions) > 1 else 1
    if positions == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return positions


class WeightedRoundRobin(DistributionPolicy):
    """Smooth weighted round-robin (as used by e.g. nginx).

    Each consumer has a running credit; every route picks the consumer
    with the highest credit and debits the total weight, producing an
    evenly interleaved sequence whose ratios match the weights.
    """

    def __init__(self, consumer_count: int,
                 weights: typing.Sequence[float] | None = None) -> None:
        super().__init__(consumer_count, weights)
        self._credit = [0.0] * consumer_count
        #: ``(row count, *credits)`` -> (credits after the walk,
        #: ``[(target, positions or slice)]``); decision 46.
        self._plans: dict[tuple, tuple] = {}

    def route(self, row: Row) -> int:
        for index in range(self.consumer_count):
            self._credit[index] += self.weights[index]
        best = max(range(self.consumer_count), key=lambda i: self._credit[i])
        self._credit[best] -= 1.0
        return best

    def route_batch(self, rows: typing.Sequence[Row]
                    ) -> list[tuple[int, typing.Sequence[Row]]]:
        # Single consumer: every route picks index 0 and leaves the
        # credit at exactly 0.0 (+1.0, max, -1.0), so skipping the
        # per-row credit walk is state- and output-identical.  The
        # whole batch passes through unsplit — on the columnar plane
        # this keeps a column-backed Batch intact with zero per-row
        # work (the compute -> sink channel is always WRR-of-1).
        if self.consumer_count == 1:
            return [(0, rows)] if len(rows) else []
        if not (isinstance(rows, Batch) and rows.is_columnar):
            return DistributionPolicy.route_batch(self, rows)
        # The credit walk never reads row content: it is a function of
        # the credits, the weights and the row count alone, so a
        # column-backed morsel routes from a cached plan — the targets'
        # positions and the credits after — without a Row (decision 46).
        count = len(rows)
        if count == 0:
            return []
        key = (count, *self._credit)
        plan = self._plans.get(key)
        if plan is not None:
            credits, groups = plan
            self._credit[:] = credits
        else:
            groups = self._walk(count)
            if len(self._plans) < PLAN_CACHE_SIZE:
                groups = [(target, _stride(positions))
                          for target, positions in groups]
                self._plans[key] = (tuple(self._credit), groups)
        if len(groups) == 1:
            return [(groups[0][0], rows)]
        return [(target, rows.take(positions))
                for target, positions in groups]

    def _walk(self, count: int) -> list[tuple[int, list[int]]]:
        """Advance the credits as ``count`` :meth:`route` calls would;
        returns each target's positions in first-appearance order."""
        credit = self._credit
        weights = self.weights
        others = range(1, self.consumer_count)
        groups: dict[int, list[int]] = {}
        for position in range(count):
            # route()'s max(): the first highest credit wins a tie.
            best = 0
            top = credit[0] = credit[0] + weights[0]
            for index in others:
                value = credit[index] = credit[index] + weights[index]
                if value > top:
                    best, top = index, value
            credit[best] = top - 1.0
            groups.setdefault(best, []).append(position)
        return list(groups.items())

    def update_weights(self, weights: typing.Sequence[float]) -> None:
        self.weights = normalise_weights(weights)
        self._plans.clear()
        # Keep the accrued credits: zeroing them made every consumer
        # tie on the first post-update route, so max() always picked
        # the lowest index and frequent rebalances burst all tuples to
        # consumer 0.  Smooth-WRR credits stay within (-1, 1) of their
        # own accord; the clamp just bounds any carry-over from a very
        # skewed previous vector.
        self._credit = [min(1.0, max(-1.0, credit))
                        for credit in self._credit]


class HashBucketPolicy(DistributionPolicy):
    """Hash-partitioning with a re-assignable bucket -> consumer map."""

    def __init__(self, consumer_count: int, key_position: int,
                 bucket_count: int = 256,
                 weights: typing.Sequence[float] | None = None,
                 bucket_map: typing.Sequence[int] | None = None) -> None:
        super().__init__(consumer_count, weights)
        if bucket_count < consumer_count:
            raise AdaptationError(
                f"bucket_count {bucket_count} < consumers {consumer_count}")
        self.key_position = key_position
        self.bucket_count = bucket_count
        if bucket_map is None:
            bucket_map = assign_buckets(self.weights, bucket_count)
        self.bucket_map = list(bucket_map)
        self._validate_map()

    def _validate_map(self) -> None:
        bucket_map = self.bucket_map
        if len(bucket_map) != self.bucket_count:
            raise AdaptationError(
                f"bucket map length {len(bucket_map)} != "
                f"{self.bucket_count}")
        # Not empty: bucket_count >= consumer_count >= 1.
        if min(bucket_map) < 0 or max(bucket_map) >= self.consumer_count:
            raise AdaptationError("bucket map references unknown consumer")

    def bucket_of(self, row: Row) -> int:
        key = row.values[self.key_position]
        return stable_hash(key) % self.bucket_count

    def route(self, row: Row) -> int:
        return self.bucket_map[self.bucket_of(row)]

    def route_batch(self, rows: typing.Sequence[Row]
                    ) -> list[tuple[int, typing.Sequence[Row]]]:
        # Vectorized hash-key extraction + bucket partitioning: one
        # tight loop with the map, the CRC and the key position bound
        # as locals.  Same hash, same map lookup, same first-appearance
        # group order as the per-row ``route`` walk.
        bucket_map = self.bucket_map
        bucket_count = self.bucket_count
        key_position = self.key_position
        crc32 = zlib.crc32
        if isinstance(rows, Batch) and rows.is_columnar:
            # Hash over the key column and partition by *row position*,
            # then gather each group's columns — no Row materialization
            # and one output block per consumer.  A single-group batch
            # passes through whole.
            keys = rows.column(key_position)
            targets = [bucket_map[crc32(repr(key).encode()) % bucket_count]
                       for key in keys]
            positions: dict[int, list[int]] = {}
            for position, target in enumerate(targets):
                group = positions.get(target)
                if group is None:
                    positions[target] = [position]
                else:
                    group.append(position)
            if len(positions) == 1:
                return [(next(iter(positions)), rows)]
            return [(target, rows.take(group))
                    for target, group in positions.items()]
        grouped: dict[int, list[Row]] = {}
        for row in rows:
            bucket = crc32(repr(row.values[key_position]).encode()) \
                % bucket_count
            grouped.setdefault(bucket_map[bucket], []).append(row)
        return list(grouped.items())

    def update_weights(self, weights: typing.Sequence[float],
                       bucket_map: typing.Sequence[int] | None = None
                       ) -> None:
        """Install new weights and the map realising them.

        When several producers feed the same consumer group they must
        share one map, so the Responder computes it centrally and
        passes it in; a lone producer may omit it and get a
        minimal-movement rebalance of its current map.
        """
        self.weights = normalise_weights(weights)
        if bucket_map is None:
            bucket_map = rebalance_buckets(self.bucket_map, self.weights)
        self.bucket_map = list(bucket_map)
        self._validate_map()


def assign_buckets(weights: typing.Sequence[float],
                   bucket_count: int) -> list[int]:
    """Initial contiguous bucket assignment proportional to weights.

    Uses largest-remainder apportionment so every consumer with
    positive weight receives at least its floor share and the counts
    sum exactly to ``bucket_count``.
    """
    weights = normalise_weights(weights)
    quotas = [w * bucket_count for w in weights]
    counts = [int(q) for q in quotas]
    remainders = sorted(range(len(weights)),
                        key=lambda i: quotas[i] - counts[i], reverse=True)
    shortfall = bucket_count - sum(counts)
    for i in range(shortfall):
        counts[remainders[i % len(remainders)]] += 1
    bucket_map: list[int] = []
    for consumer, count in enumerate(counts):
        bucket_map.extend([consumer] * count)
    return bucket_map


def rebalance_buckets(current_map: typing.Sequence[int],
                      weights: typing.Sequence[float]) -> list[int]:
    """Minimal-movement reassignment of buckets to match ``weights``.

    Consumers over their target count give buckets away (from the end
    of their held list) to consumers under theirs; untouched buckets —
    and thus their operator state — stay put.
    """
    weights = normalise_weights(weights)
    bucket_count = len(current_map)
    consumer_count = len(weights)
    quotas = [w * bucket_count for w in weights]
    targets = [int(q) for q in quotas]
    remainders = sorted(range(consumer_count),
                        key=lambda i: quotas[i] - targets[i], reverse=True)
    shortfall = bucket_count - sum(targets)
    for i in range(shortfall):
        targets[remainders[i % consumer_count]] += 1

    held: list[list[int]] = [[] for _ in range(consumer_count)]
    for bucket, consumer in enumerate(current_map):
        held[consumer].append(bucket)

    surplus: list[int] = []
    for consumer in range(consumer_count):
        while len(held[consumer]) > targets[consumer]:
            surplus.append(held[consumer].pop())
    new_map = list(current_map)
    for consumer in range(consumer_count):
        while len(held[consumer]) < targets[consumer]:
            bucket = surplus.pop()
            held[consumer].append(bucket)
            new_map[bucket] = consumer
    return new_map


def rebalance_outstanding(
        assignments: typing.Mapping[int, typing.Sequence[Row]],
        weights: typing.Sequence[float]) -> dict[int, list[tuple[Row, int]]]:
    """Plan a minimal-movement reshuffle of outstanding tuples.

    ``assignments`` maps consumer index to its outstanding (unsent or
    unacknowledged) tuples.  Returns, per source consumer, the list of
    ``(row, new_consumer)`` moves needed so outstanding counts become
    proportional to ``weights``.  Used for R1 on stateless subplans,
    where any tuple may run anywhere.
    """
    weights = normalise_weights(weights)
    consumer_count = len(weights)
    outstanding = {c: list(rows) for c, rows in assignments.items()}
    total = sum(len(rows) for rows in outstanding.values())
    if total == 0:
        return {}
    quotas = [w * total for w in weights]
    targets = [int(q) for q in quotas]
    remainders = sorted(range(consumer_count),
                        key=lambda i: quotas[i] - targets[i], reverse=True)
    shortfall = total - sum(targets)
    for i in range(shortfall):
        targets[remainders[i % consumer_count]] += 1

    deficits = [targets[c] - len(outstanding.get(c, []))
                for c in range(consumer_count)]
    moves: dict[int, list[tuple[Row, int]]] = {}
    receivers = [c for c in range(consumer_count) if deficits[c] > 0]
    # Drained receivers advance a cursor instead of ``pop(0)``-ing the
    # list head, which re-shifted every remaining element and made the
    # plan O(n²) in the receiver count.  The visit order — and thus
    # every (row, target) pair — is identical to the shifting version.
    front = 0
    for source in range(consumer_count):
        excess = -deficits[source]
        if excess <= 0:
            continue
        # Move the most recently assigned tuples first: they are the
        # least likely to have started processing at the consumer.
        candidates = outstanding.get(source, [])[::-1][:excess]
        for row in candidates:
            while front < len(receivers) and deficits[receivers[front]] == 0:
                front += 1
            if front == len(receivers):
                break
            target = receivers[front]
            deficits[target] -= 1
            moves.setdefault(source, []).append((row, target))
    return moves
