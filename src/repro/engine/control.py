"""Engine-level control message payloads.

These travel as ``KIND_CONTROL`` messages between GQES services, on
the same FIFO links as data buffers — an ordering the protocols rely
on (a discard sent after a data buffer is observed after it).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class DataBuffer:
    """Payload of a ``KIND_DATA`` message: a buffer of stream items.

    ``items`` holds :class:`~repro.data.batch.Batch` blocks interleaved
    with checkpoint markers, in channel order; ``tuple_count`` is the
    blocks' total row count.
    """

    channel_key: str
    producer_id: str
    items: list
    tuple_count: int


@dataclasses.dataclass(frozen=True)
class DiscardTuples:
    """Retract tuples previously sent on a channel (retrospective move).

    The consumer drops matching tuples from its incoming queue and from
    any operator state built from them.
    """

    channel_key: str
    producer_id: str
    tids: frozenset


@dataclasses.dataclass(frozen=True)
class ChannelAnnouncement:
    """End-of-stream announcement: the channel's tids, as the producer's
    ledger snapshot (``TidLedger``).  The channel is complete once every
    announced tid is settled (processed or discarded).  Revisions
    (higher ``revision``) replace earlier ones after a retrospective move.
    """

    channel_key: str
    producer_id: str
    tid_blocks: tuple
    revision: int


@dataclasses.dataclass(frozen=True)
class DistributionUpdate:
    """Responder -> producer: install a new workload vector.

    ``bucket_map`` accompanies hash-partitioned subplans so that every
    producer feeding the same consumer group installs an identical
    mapping.  ``retrospective`` selects R1 (redistribute recovery logs)
    over R2 (prospective only).
    """

    subplan_id: str
    weights: tuple
    bucket_map: tuple | None
    retrospective: bool
    epoch: int


@dataclasses.dataclass(frozen=True)
class ResetProducer:
    """Forget a producer's announcement on a channel (failure recovery).

    Sent by the GDQS when an evaluator is re-created after a failure:
    the replacement re-sends and re-announces under the same producer
    id, and its fresh revision numbering must win.  Settled tids are
    kept — re-deliveries of already-seen tuples stay deduplicated.
    """

    channel_key: str
    producer_id: str


@dataclasses.dataclass(frozen=True)
class QueryComplete:
    """GDQS -> all GQESs: the query finished; tear down."""

    query_id: str


@dataclasses.dataclass(frozen=True)
class ProgressReport:
    """Reply to the Responder's progress estimation request ([7])."""

    producer_id: str
    tuples_sent: int
    estimated_total: int

    @property
    def fraction_sent(self) -> float:
        if self.estimated_total <= 0:
            return 1.0
        return min(1.0, self.tuples_sent / self.estimated_total)


class Recheck:
    """Queue sentinel (the one instance is ``RECHECK``): re-evaluate
    channel completion after announcements, discards or completion."""


RECHECK = Recheck()
