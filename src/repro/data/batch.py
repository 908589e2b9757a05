"""Morsel-driven batches of provenance-tracked tuples.

The engine's hot path moves :class:`Batch` objects between operators
instead of one tuple at a time, so a chain of ``next_batch()`` calls
schedules one simulator event per *batch* of CPU work rather than one
per tuple.

A batch is parallel per-column value lists plus a tid column, and
nothing else (DESIGN decision 47).  Operators, wire buffers, recovery
logs, a state channel's retained blocks and the result sink all read
and write the columns and name tuples by position or tid, so a tuple
has one representation from scan to sink and keeps its provenance
without a per-tuple object.  Plain stdlib lists are used for the
columns — values are heterogeneous Python objects (strings, floats) so
``array``/numpy buffers would buy nothing here, and numpy stays an
optional-off non-dependency.

A :class:`~repro.data.tuples.Row` exists only at the edges:
:meth:`Batch.from_rows` takes tuples in, and the uncached
:attr:`Batch.rows` view hands them out (``QueryResult.rows``).  A
batch is neither iterable nor indexable, so no engine loop can build
rows by accident.

``EngineConfig.batch_size`` controls the morsel size; ``batch_size=1``
runs one-row morsels through the same operator code, which is the
reference granularity of the equivalence property tests.
"""

from __future__ import annotations

import typing

from repro.data.tuples import Row, Tid


class Batch:
    """An ordered, immutable-by-convention morsel of tuples.

    Operators may share the column and tid lists when they do not
    mutate them (e.g. a pass-through exchange or a projection);
    transforming operators build a new ``Batch``.  The lists handed to
    the constructor are adopted, not copied — callers hand over
    ownership.
    """

    __slots__ = ("_columns", "_tids")

    def __init__(self, columns: typing.Sequence[list],
                 tids: list[Tid]) -> None:
        self._columns: list[list] = list(columns)
        self._tids = tids

    @classmethod
    def from_rows(cls, rows: typing.Iterable[Row]) -> "Batch":
        """A batch holding ``rows``' values and tids, in order."""
        rows = list(rows)
        return cls([list(column)
                    for column in zip(*(row.values for row in rows))],
                   [row.tid for row in rows])

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def rows(self) -> list[Row]:
        """The tuples as new ``Row``s, built on every read."""
        if self._columns:
            return list(map(Row, zip(*self._columns), self._tids))
        return [Row((), tid) for tid in self._tids]

    def __len__(self) -> int:
        return len(self._tids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch of {len(self)} rows x {self.width} columns>"

    def columns(self) -> list[list]:
        """Parallel per-column value lists."""
        return self._columns

    def column(self, position: int) -> list:
        """One column's values, in batch order."""
        return self._columns[position]

    def tids(self) -> list[Tid]:
        """Provenance ids of every tuple, in batch order."""
        return self._tids

    def take(self, positions: "typing.Sequence[int] | slice") -> "Batch":
        """The tuples at ``positions`` (an index list or a ``slice``),
        in that order."""
        if isinstance(positions, slice):
            return Batch([column[positions] for column in self._columns],
                         self._tids[positions])
        tids = self._tids
        return Batch([[column[i] for i in positions]
                      for column in self._columns],
                     [tids[i] for i in positions])

    def slice(self, start: int, stop: int) -> "Batch":
        """Sub-batch of tuples ``[start, stop)``."""
        return self.take(slice(start, stop))

    def split_at(self, index: int) -> tuple["Batch", "Batch"]:
        """Split into ``(first index tuples, rest)`` preserving order."""
        return self.slice(0, index), self.slice(index, len(self))

    def select_columns(self, positions: typing.Sequence[int]) -> "Batch":
        """Vectorized projection: keep ``positions`` columns, share tids."""
        columns = self._columns
        return Batch([columns[p] for p in positions], self._tids)

    def filter_tids(self, drop: typing.AbstractSet[Tid]
                    ) -> tuple["Batch", int]:
        """Drop tuples whose tid is in ``drop``; returns (kept, removed).

        Used by the exchange consumer's discard path, which must reach
        inside queued wire blocks during a retrospective repartition.
        """
        tids = self._tids
        keep = [i for i, tid in enumerate(tids) if tid not in drop]
        removed = len(tids) - len(keep)
        if removed == 0:
            return self, 0
        return self.take(keep), removed

    @classmethod
    def concat(cls, parts: typing.Sequence["Batch"]) -> "Batch":
        """One batch holding every part's tuples, in order.

        Empty parts are skipped; a single non-empty part is returned
        as it is.  The parts must have the same width.
        """
        live = [part for part in parts if part._tids]
        if len(live) == 1:
            return live[0]
        if not live:
            return cls([], [])
        columns: list[list] = [[] for _ in live[0]._columns]
        tids: list[Tid] = []
        for part in live:
            if len(part._columns) != len(columns):
                raise ValueError(f"cannot concatenate a {part.width}-column "
                                 f"batch to {len(columns)} columns")
            for accumulator, column in zip(columns, part._columns):
                accumulator.extend(column)
            tids.extend(part._tids)
        return cls(columns, tids)
