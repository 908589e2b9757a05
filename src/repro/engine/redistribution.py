"""The Response stage's redistribution protocol as one state machine.

The Response stage installs ``W'`` in the producers feeding a
partitioned subplan, prospectively (R2) or retrospectively (R1:
"unacknowledged tuples held in the fault-tolerance recovery logs ...
are redistributed under ``W'``", §3.1).  A :class:`Redistribution` is
one producer's tid ledger, epoch machine and bucket-owner history, and
decides who owns each tid at each epoch.  It never waits: the
:class:`~repro.engine.operators.exchange.ExchangeProducer` driving it
owns blocks, logs, charges, sends and waiters.  Acknowledgements reach
it only through the outstanding blocks the producer hands in.
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.tuples import Tid
from repro.engine.distribution import (
    DistributionPolicy,
    HashBucketPolicy,
    rebalance_outstanding,
)

#: ``source channel -> [(position in its outstanding block, target
#: channel), ...]``.
Moves = dict[int, list[tuple[int, int]]]


def regroup(picks: typing.Iterable[
        tuple[Batch, typing.Iterable[tuple[int, int]]]]
            ) -> dict[int, Batch]:
    """``(block, [(position, target), ...])`` picks as one batch per
    target: a target's tuples in pick order, targets in the order they
    are first picked."""
    parts: dict[int, list[Batch]] = {}
    for block, pairs in picks:
        positions: dict[int, list[int]] = {}
        for position, target in pairs:
            positions.setdefault(target, []).append(position)
        for target, group in positions.items():
            parts.setdefault(target, []).append(block.take(group))
    return {target: Batch.concat(blocks) for target, blocks in parts.items()}


class Redistribution:
    """One producer's tid ledger, epoch machine and bucket owners."""

    def __init__(self, policy: DistributionPolicy,
                 state_channel: bool = False) -> None:
        count = policy.consumer_count
        #: The producer's routing policy; :meth:`apply` installs ``W'``.
        self.policy = policy
        #: Tids attributed to each channel (buffered or sent), and the
        #: ones actually transmitted on it.
        self.attributed: list[set[Tid]] = [set() for _ in range(count)]
        self.on_wire: list[set[Tid]] = [set() for _ in range(count)]
        self.announced: list[frozenset | None] = [None] * count
        self.revision: list[int] = [0] * count
        self.applied_epoch = 0
        #: Highest epoch whose replay phase completed (deliveries
        #: confirmed); a stale update is acknowledged only once it has.
        self.settled_epoch = 0
        #: True between the replay and discard phases of an update
        #: (used by termination detection).
        self.moving = False
        #: Most recent update applied (for the GDQS's roll-forward).
        self.last_update = None
        #: ``(channel, tids)`` retractions for the discard phase.
        self.pending_discards: list[tuple[int, frozenset]] = []
        #: State channels (a join's build side): every consumer that ever
        #: owned a bucket that has moved — old owners keep their copy
        #: and may still be probed, so later state rows reach them too
        #: (multicast).  A bucket that never moved is absent: its only
        #: owner is the one ``policy.bucket_map`` names.
        self.bucket_owners: dict[int, set[int]] | None = None
        if state_channel and isinstance(policy, HashBucketPolicy):
            self.bucket_owners = {}
        #: Stays False until a bucket first has a second owner.
        self.multicast = False
        #: State channels: bucket -> new owner, of the last update.
        self.moved_buckets: dict[int, int] = {}

    # -- the ledger --------------------------------------------------------

    def place(self, index: int, tids: typing.Iterable[Tid]) -> None:
        self.attributed[index].update(tids)

    def sent(self, index: int, tids: typing.Iterable[Tid]) -> None:
        self.on_wire[index].update(tids)

    def announcements(self) -> list[tuple[int, frozenset, int]]:
        """``(channel, tids, revision)`` of every channel whose
        attribution changed since it was last announced."""
        due = []
        for index, tids in enumerate(self.attributed):
            current = frozenset(tids)
            if self.announced[index] != current:
                self.announced[index] = current
                self.revision[index] += 1
                due.append((index, current, self.revision[index]))
        return due

    def multicast_extras(self, placements: typing.Iterable[
            tuple[int, Batch]]) -> list[tuple[int, Batch]]:
        """The placed groups' tuples again, for each bucket's former
        owners beyond the channel a group is placed on."""
        owners_of = self.bucket_owners.get
        bucket_of = self.policy.bucket_of

        def extras(index: int, group: Batch):
            for position, key in enumerate(
                    group.column(self.policy.key_position)):
                owners = owners_of(bucket_of(key))
                if owners is not None:
                    for extra in sorted(owners - {index}):
                        yield position, extra

        return list(regroup((group, extras(index, group))
                            for index, group in placements).items())

    def redirect(self, index: int,
                 outstanding: typing.Iterable[Tid] | None) -> None:
        """Channel ``index`` now points at a replacement consumer.  With
        a log it is re-attributed to the ``outstanding`` (logged) tids:
        acknowledged ones need no replay and must not be awaited."""
        self.on_wire[index] = set()
        self.announced[index] = None
        if outstanding is not None:
            self.attributed[index] = set(outstanding)

    # -- the epoch machine -------------------------------------------------

    def apply(self, update) -> bool:
        """Install ``update`` unless stale; True when applied.  Starts a
        move that lasts until :meth:`end_move`."""
        if update.epoch <= self.applied_epoch:
            return False
        self.applied_epoch = update.epoch
        self.last_update = update
        self.moving = True
        self.pending_discards = []
        policy = self.policy
        if not isinstance(policy, HashBucketPolicy):
            policy.update_weights(update.weights)
            return True
        old_map = policy.bucket_map
        policy.update_weights(update.weights, update.bucket_map)
        if self.bucket_owners is not None:
            new_map = policy.bucket_map
            self.moved_buckets = {
                bucket: new_map[bucket]
                for bucket, owner in enumerate(old_map)
                if new_map[bucket] != owner}
            for bucket, owner in self.moved_buckets.items():
                self.bucket_owners.setdefault(
                    bucket, {old_map[bucket]}).add(owner)
                self.multicast = True
        return True

    def plan_moves(self, outstanding: typing.Mapping[int, Batch]) -> Moves:
        """Which outstanding tuples (per channel) move where: hashed
        tuples follow their bucket, others rebalance with minimal
        movement."""
        policy = self.policy
        if not isinstance(policy, HashBucketPolicy):
            return rebalance_outstanding(
                {index: range(len(rows))
                 for index, rows in outstanding.items()}, policy.weights)
        moves: Moves = {}
        for index, rows in outstanding.items():
            if not rows:
                continue
            for position, target in enumerate(
                    policy.owners(rows.column(policy.key_position))):
                if target != index:
                    moves.setdefault(index, []).append((position, target))
        return moves

    def retract(self, index: int, moved: set[Tid]) -> None:
        """``moved`` left channel ``index``; those already on its wire
        are retracted from its consumer in the discard phase."""
        self.attributed[index] -= moved
        discard = moved & self.on_wire[index]
        self.on_wire[index] -= moved
        if discard:
            self.pending_discards.append((index, frozenset(discard)))

    def state_copies(self, retained: typing.Iterable[Batch],
                     moved: typing.Mapping[int, int]) -> dict[int, Batch]:
        """Retained tuples of the ``moved`` buckets (as read when the
        copy began), per new owner not holding them.  State channels
        never retract: probes racing the move still find the old copy,
        and the sink dedups join outputs by provenance."""
        bucket_of = self.policy.bucket_of
        attributed = self.attributed

        def copies(block: Batch):
            tids = block.tids()
            for position, key in enumerate(
                    block.column(self.policy.key_position)):
                target = moved.get(bucket_of(key))
                if (target is not None
                        and tids[position] not in attributed[target]):
                    yield position, target

        return regroup((block, copies(block)) for block in retained)

    def settle(self, epoch: int) -> None:
        """The replay phase of ``epoch`` completed."""
        self.settled_epoch = epoch

    def is_settled(self, epoch: int) -> bool:
        return self.settled_epoch >= epoch

    def take_discards(self) -> list[tuple[int, frozenset]]:
        """The discard phase's retractions, handed out once."""
        discards, self.pending_discards = self.pending_discards, []
        return discards

    def end_move(self) -> None:
        """The discard phase completed."""
        self.moving = False
