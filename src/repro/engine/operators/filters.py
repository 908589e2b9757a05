"""Stateless per-tuple operators: selection and projection.

Both are vectorized over the batch's column arrays: selection
evaluates a :class:`~repro.data.tuples.ColumnPredicate`'s test directly
over the key column and gathers surviving positions column-wise;
projection is a column select that never touches rows.  An opaque
(plain callable) predicate is evaluated row by row — the kept rows and
the charged work are the same either way.
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.tuples import ColumnPredicate, Row
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator


class Select(UnaryOperator):
    """Filters rows through a predicate on row values."""

    def __init__(self, ctx: EvalContext, child: Operator,
                 predicate: typing.Callable[[Row], bool],
                 description: str = "predicate") -> None:
        super().__init__(ctx, child)
        self.predicate = predicate
        self.description = description

    def _filter_columnar(self, batch: Batch) -> Batch | None:
        """Vectorized filter; None when every row is dropped.

        Runs the predicate's scalar test over the key column, then
        gathers the surviving positions from every column.  An all-pass
        batch is returned as-is (the common case for selective-upstream
        plans); the kept set is identical to the row loop's.
        """
        test = self.predicate.test
        keep = [i for i, value in
                enumerate(batch.column(self.predicate.position))
                if test(value)]
        if not keep:
            return None
        if len(keep) == len(batch):
            return batch
        columns = batch.columns()
        tids = batch.tids()
        return Batch.from_columns(
            [[column[i] for i in keep] for column in columns],
            [tids[i] for i in keep])

    def next_batch(self, max_rows: int) -> typing.Generator:
        columnar = isinstance(self.predicate, ColumnPredicate)
        # The predicate is charged per input row; empty post-filter
        # batches are retried so callers only ever see non-empty ones.
        while True:
            batch = yield from self.child.next_batch(max_rows)
            if batch is END:
                return END
            self.ctx.charge("select", self.ctx.cost.select_work, len(batch))
            if columnar:
                kept_batch = self._filter_columnar(batch)
                if kept_batch is not None:
                    return kept_batch
            else:
                kept = [row for row in batch if self.predicate(row)]
                if kept:
                    return batch.replace_rows(kept)
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
        # column; no per-row allocation.  Content matches
        # row.project(positions) for every row.
        return batch.select_columns(self.positions)
