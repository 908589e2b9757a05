"""Result sink: the root of the query plan on the coordinator.

Deduplicates results by provenance id, making the whole pipeline
exactly-once under retrospective replays, and fires a completion event
the GDQS uses to measure the query response time.
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator


class ResultSink(UnaryOperator):
    """Collects deduplicated result blocks and signals completion.

    Accepted rows stay in the blocks they arrived in (column-backed on
    the columnar plane), so the sink builds no ``Row`` (decision 46).
    With an attached :class:`~repro.engine.operators.aggregate.
    GroupAggregator`, accepted rows are folded into their groups
    instead and :meth:`final_blocks` returns the aggregated output.
    """

    def __init__(self, ctx: EvalContext, child: Operator,
                 aggregator=None) -> None:
        super().__init__(ctx, child)
        self.aggregator = aggregator
        self.blocks: list[Batch] = []
        self._seen: set = set()
        self.duplicates_dropped = 0
        self.done = ctx.env.event()
        #: Time of the most recent completion (updated if late replays
        #: reopen the result channel).
        self.completed_at: float | None = None

    def next_batch(self, max_rows: int) -> typing.Generator:
        batch = yield from self.child.next_batch(max_rows)
        if batch is END:
            return END
        self.ctx.charge("sink", self.ctx.cost.sink_work, len(batch))
        # Bulk dedup: a batch of entirely-new tids (duplicates only
        # appear under replays) is verified in one set-disjointness
        # probe; otherwise the block keeps each new tid's first row.
        seen = self._seen
        tids = batch.tids()
        unique = set(tids)
        if len(unique) == len(tids) and seen.isdisjoint(unique):
            seen |= unique
            accepted = batch
        else:
            keep = []
            for position, tid in enumerate(tids):
                if tid in seen:
                    self.duplicates_dropped += 1
                else:
                    seen.add(tid)
                    keep.append(position)
            accepted = batch.take(keep)
        if self.aggregator is None:
            self.blocks.append(accepted)
        else:
            for row in accepted:
                self.aggregator.add(row)
        return batch

    def final_blocks(self) -> list[Batch]:
        """The query's output blocks (aggregated when grouping is on)."""
        if self.aggregator is not None:
            return [Batch(self.aggregator.results())]
        return list(self.blocks)

    def finish(self) -> typing.Generator:
        """Completion: all result channels drained and announced."""
        self.completed_at = self.env.now
        if not self.done.triggered:
            self.done.succeed(self.env.now)
        return
        yield  # pragma: no cover - generator form
