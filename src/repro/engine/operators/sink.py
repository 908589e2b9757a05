"""Result sink: the root of the query plan on the coordinator.

Deduplicates results by provenance id, making the whole pipeline
exactly-once under retrospective replays, and fires a completion event
the GDQS uses to measure the query response time.
"""

from __future__ import annotations

import typing

from repro.data.tuples import Row
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator


class ResultSink(UnaryOperator):
    """Collects deduplicated result rows and signals completion.

    With an attached :class:`~repro.engine.operators.aggregate.
    GroupAggregator`, accepted rows are additionally folded into their
    groups and :meth:`final_rows` returns the aggregated output.
    """

    def __init__(self, ctx: EvalContext, child: Operator,
                 aggregator=None) -> None:
        super().__init__(ctx, child)
        self.aggregator = aggregator
        self.results: list[Row] = []
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
        if self.aggregator is None:
            # Bulk dedup: the overwhelmingly common case is a batch of
            # entirely-new tids (duplicates only appear under replays),
            # verified in one set-disjointness probe.  Falls back to
            # the row loop on any duplicate — including intra-batch
            # ones, which the uniqueness check catches.
            tids = batch.tids()
            unique = set(tids)
            if len(unique) == len(tids) and self._seen.isdisjoint(unique):
                self._seen |= unique
                self.results.extend(batch.rows)
                return batch
        for row in batch:
            if row.tid in self._seen:
                self.duplicates_dropped += 1
            else:
                self._seen.add(row.tid)
                self.results.append(row)
                if self.aggregator is not None:
                    self.aggregator.add(row)
        return batch

    def final_rows(self) -> list[Row]:
        """The query's output rows (aggregated when grouping is on)."""
        if self.aggregator is not None:
            return self.aggregator.results()
        return list(self.results)

    def finish(self) -> typing.Generator:
        """Completion: all result channels drained and announced."""
        self.completed_at = self.env.now
        if not self.done.triggered:
            self.done.succeed(self.env.now)
        return
        yield  # pragma: no cover - generator form
