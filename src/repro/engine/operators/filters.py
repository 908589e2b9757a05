"""Stateless per-tuple operators: selection and projection.

Both are vectorized over the batch's column arrays: selection
evaluates a :class:`~repro.data.tuples.ColumnPredicate`'s test directly
over its column and gathers surviving positions column-wise;
projection is a column select that never touches rows.
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.tuples import ColumnPredicate
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator


class Select(UnaryOperator):
    """Filters rows through a predicate on one column."""

    def __init__(self, ctx: EvalContext, child: Operator,
                 predicate: ColumnPredicate,
                 description: str = "predicate") -> None:
        super().__init__(ctx, child)
        self.predicate = predicate
        self.description = description

    def _filter(self, batch: Batch) -> Batch | None:
        """Vectorized filter; None when every row is dropped.

        Runs the predicate's scalar test over its column, then gathers
        the surviving positions from every column.  An all-pass batch
        is returned as-is (the common case for selective-upstream
        plans).
        """
        test = self.predicate.test
        keep = [i for i, value in
                enumerate(batch.column(self.predicate.position))
                if test(value)]
        if not keep:
            return None
        if len(keep) == len(batch):
            return batch
        return batch.take(keep)

    def next_batch(self, max_rows: int) -> typing.Generator:
        # The predicate is charged per input row; empty post-filter
        # batches are retried so callers only ever see non-empty ones.
        while True:
            batch = yield from self.child.next_batch(max_rows)
            if batch is END:
                return END
            self.ctx.charge("select", self.ctx.cost.select_work, len(batch))
            kept = self._filter(batch)
            if kept is not None:
                return kept
            # One payment per morsel pulled, kept or not.
            yield from self.ctx.settle()


class Project(UnaryOperator):
    """Projects rows onto a list of column positions."""

    def __init__(self, ctx: EvalContext, child: Operator,
                 positions: typing.Sequence[int]) -> None:
        super().__init__(ctx, child)
        self.positions = list(positions)

    def next_batch(self, max_rows: int) -> typing.Generator:
        batch = yield from self.child.next_batch(max_rows)
        if batch is END:
            return END
        self.ctx.charge("project", self.ctx.cost.project_work, len(batch))
        # Column select: shares the kept column lists and the tid
        # column; no per-row allocation.
        return batch.select_columns(self.positions)
