"""Producer-side recovery logs.

"In practice, the recovery logs contain, at any point, the tuples that
have not finished being processed by the evaluators to which they were
sent, and thus include all the in-transit tuples, and the tuples that
make up operator states.  This provides an opportunity to repartition
state across consumer nodes by extracting the tuples stored in the
recovery logs" (§3.1, Response).

One :class:`RecoveryLog` exists per (producer, consumer channel).  It
holds checkpoint-delimited segments of sent-but-unacknowledged tuples;
an acknowledgement prunes every segment up to its checkpoint id.
"""

from __future__ import annotations

import collections
import typing

from repro.data.batch import Batch
from repro.data.tuples import Tid
from repro.errors import RecoveryError


def _segment_rows(segment: list[Batch]) -> int:
    """Row count of a segment of logged blocks."""
    return sum(len(block) for block in segment)


class RecoveryLog:
    """Checkpoint-segmented log of unacknowledged tuples for a channel.

    Segment entries are the :class:`Batch` blocks the producer
    buffered, kept as they are, so logging a block is O(1) and the log
    holds column slices only.
    """

    def __init__(self, channel_key: str) -> None:
        self.channel_key = channel_key
        self._sealed: "collections.OrderedDict[int, list]" = (
            collections.OrderedDict())
        self._open: list = []
        self._last_sealed_id: int | None = None
        self.appended_total = 0
        self.acknowledged_total = 0

    def __len__(self) -> int:
        return (sum(_segment_rows(seg) for seg in self._sealed.values())
                + _segment_rows(self._open))

    def append_block(self, block: Batch) -> None:
        """Log a wire block just buffered on this channel.

        The block is stored as-is; callers chunk blocks at checkpoint
        boundaries, so a block never spans a :meth:`seal`.
        """
        self._open.append(block)
        self.appended_total += len(block)

    def seal(self, checkpoint_id: int) -> None:
        """Close the open segment under ``checkpoint_id``."""
        if (self._last_sealed_id is not None
                and checkpoint_id <= self._last_sealed_id):
            raise RecoveryError(
                f"{self.channel_key}: checkpoint ids must increase "
                f"({checkpoint_id} after {self._last_sealed_id})")
        self._sealed[checkpoint_id] = self._open
        self._open = []
        self._last_sealed_id = checkpoint_id

    def acknowledge(self, checkpoint_id: int) -> int:
        """Prune segments up to ``checkpoint_id``; returns tuples freed."""
        freed = 0
        for sealed_id in list(self._sealed):
            if sealed_id > checkpoint_id:
                break
            freed += _segment_rows(self._sealed.pop(sealed_id))
        self.acknowledged_total += freed
        return freed

    def outstanding(self) -> Batch:
        """Every logged (sent but unacknowledged) tuple, oldest first."""
        return Batch.concat([block for segment in (*self._sealed.values(),
                                                   self._open)
                             for block in segment])

    def remove(self, tids: typing.AbstractSet[Tid]) -> Batch:
        """Remove (and return) logged tuples whose tid is in ``tids``.

        Used when a retrospective repartition moves tuples to another
        consumer: they leave this channel's log and are re-logged on
        the new channel when resent.  A logged block containing any
        matched tuple is filtered into a new block; blocks untouched by
        ``tids`` are kept whole.
        """
        removed: list[Batch] = []

        def filter_segment(segment: list[Batch]) -> list[Batch]:
            kept = []
            for block in segment:
                kept_block, dropped = block.filter_tids(tids)
                if dropped:
                    removed.append(block.take(
                        [position for position, tid
                         in enumerate(block.tids()) if tid in tids]))
                if len(kept_block):
                    kept.append(kept_block)
            return kept

        for sealed_id in list(self._sealed):
            self._sealed[sealed_id] = filter_segment(self._sealed[sealed_id])
        self._open = filter_segment(self._open)
        return Batch.concat(removed)
