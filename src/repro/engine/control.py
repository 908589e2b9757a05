"""Engine-level control message payloads.

These travel as ``KIND_CONTROL`` messages between GQES services, on
the same FIFO links as data buffers — an ordering the protocols rely
on (a discard sent after a data buffer is observed after it).
"""

from __future__ import annotations

import dataclasses
import typing


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
    """End-of-stream announcement carrying the channel's full tid set.

    The consumer's channel is complete once every announced tid is
    settled (processed or discarded).  Revisions (higher ``revision``)
    replace earlier announcements after retrospective repartitioning.
    """

    channel_key: str
    producer_id: str
    sent_tids: frozenset
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


#: Sentinel injected into consumer queues to force a completion
#: re-check (after announcements, discards or query completion).
class Recheck:
    """Queue sentinel: re-evaluate channel completion."""

    _instance: typing.ClassVar["Recheck | None"] = None

    def __new__(cls) -> "Recheck":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


RECHECK = Recheck()
