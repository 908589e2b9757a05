"""Morsel-driven batches of provenance-tracked rows.

The engine's hot path moves :class:`Batch` objects — ordered containers
of :class:`~repro.data.tuples.Row`s — between operators instead of one
row at a time, so a chain of ``next_batch()`` calls schedules one
simulator event per *batch* of CPU work rather than one per tuple.
Per-tuple provenance is untouched: a batch is a view over its rows,
every row keeps its ``tid``, and recovery / dedup / repartitioning
logic keeps operating on individual tuples.

A batch is backed either by a row list or by parallel per-column
value lists plus a tid column.  Scans emit column-backed batches and
the vectorized operators keep them so, held join matches included;
state channels, opaque-predicate selection and the operation call
under chaos build row-backed ones.  Vectorized operators read and
write the column arrays directly; row-at-a-time consumers
(``__iter__``, ``__getitem__``, recovery/dedup/repartition logic) are
served by lazy ``Row`` materialization, so both backings expose the
same API and the same ordering.  Plain stdlib lists are used for the
columns — values are heterogeneous Python objects (strings, floats) so
``array``/numpy buffers would buy nothing here, and numpy stays an
optional-off non-dependency.

``EngineConfig.batch_size`` controls the morsel size; ``batch_size=1``
runs one-row morsels through the same operator code, which is the
reference granularity of the equivalence property tests.
"""

from __future__ import annotations

import typing

from repro.data.tuples import Row, Tid


class Batch:
    """An ordered, immutable-by-convention morsel of rows.

    Operators may share the underlying storage when they do not mutate
    it (e.g. a pass-through exchange); transforming operators build a
    new ``Batch`` via :meth:`replace_rows` or :meth:`from_columns`.

    Exactly one of the two backings is authoritative: ``_rows`` (row
    list) or ``_columns``/``_tids`` (parallel column lists).  Reading
    ``.rows`` on a column-backed batch materializes — and caches — the
    row list; reading :meth:`columns` on a row-backed batch builds and
    caches the column lists.  Either way the logical content is
    identical, so downstream behaviour cannot depend on the backing.
    """

    __slots__ = ("_rows", "_columns", "_tids")

    def __init__(self, rows: typing.Sequence[Row]) -> None:
        self._rows: list[Row] | None = list(rows)
        self._columns: list[list] | None = None
        self._tids: list[Tid] | None = None

    @classmethod
    def from_columns(cls, columns: typing.Sequence[list],
                     tids: list[Tid]) -> "Batch":
        """A column-backed batch over parallel value lists + a tid column.

        The lists are adopted, not copied — callers hand over ownership.
        """
        batch = cls.__new__(cls)
        batch._rows = None
        batch._columns = list(columns)
        batch._tids = tids
        return batch

    # -- backing introspection -----------------------------------------

    @property
    def is_columnar(self) -> bool:
        """True when the authoritative backing is columnar."""
        return self._rows is None

    @property
    def width(self) -> int:
        """Number of columns (0 for an empty row-backed batch)."""
        if self._columns is not None:
            return len(self._columns)
        if self._rows:
            return len(self._rows[0].values)
        return 0

    # -- row-at-a-time view (lazy materialization) ---------------------

    @property
    def rows(self) -> list[Row]:
        """The row list; materialized (and cached) when column-backed."""
        if self._rows is None:
            columns = self._columns
            tids = self._tids
            if columns:
                self._rows = [Row(values, tid)
                              for values, tid in zip(zip(*columns), tids)]
            else:
                self._rows = [Row((), tid) for tid in tids]
        return self._rows

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._tids)

    def __iter__(self) -> typing.Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "columnar" if self.is_columnar else "row"
        return f"<Batch of {len(self)} rows ({kind})>"

    # -- columnar view -------------------------------------------------

    def columns(self) -> list[list]:
        """Parallel per-column value lists (built and cached if needed)."""
        if self._columns is None:
            rows = self._rows
            if rows:
                self._columns = [list(column)
                                 for column in zip(*(r.values for r in rows))]
            else:
                self._columns = []
            self._tids = [row.tid for row in rows]
        return self._columns

    def column(self, position: int) -> list:
        """One column's values, in batch order."""
        return self.columns()[position]

    # -- provenance and accounting ------------------------------------

    def tids(self) -> list[Tid]:
        """Provenance ids of every row, in batch order."""
        if self._tids is not None:
            return self._tids
        return [row.tid for row in self._rows]

    # -- construction helpers ------------------------------------------

    def replace_rows(self, rows: typing.Sequence[Row]) -> "Batch":
        """A new batch holding ``rows`` (used by transforming operators)."""
        return Batch(rows)

    def take(self, positions: "typing.Sequence[int] | slice") -> "Batch":
        """The rows at ``positions`` (an index list or a ``slice``), in
        that order, preserving the backing."""
        if self._rows is not None:
            rows = self._rows
            if isinstance(positions, slice):
                return Batch(rows[positions])
            return Batch([rows[i] for i in positions])
        if isinstance(positions, slice):
            return Batch.from_columns(
                [column[positions] for column in self._columns],
                self._tids[positions])
        tids = self._tids
        return Batch.from_columns(
            [[column[i] for i in positions] for column in self._columns],
            [tids[i] for i in positions])

    def slice(self, start: int, stop: int) -> "Batch":
        """Sub-batch of rows ``[start, stop)``, preserving the backing."""
        return self.take(slice(start, stop))

    def split_at(self, index: int) -> tuple["Batch", "Batch"]:
        """Split into ``(first index rows, rest)`` preserving order."""
        return self.slice(0, index), self.slice(index, len(self))

    def select_columns(self, positions: typing.Sequence[int]) -> "Batch":
        """Vectorized projection: keep ``positions`` columns, share tids."""
        columns = self.columns()
        return Batch.from_columns([columns[p] for p in positions],
                                  self.tids())

    def filter_tids(self, drop: typing.AbstractSet[Tid]
                    ) -> tuple["Batch", int]:
        """Drop rows whose tid is in ``drop``; returns (kept, removed).

        Used by the exchange consumer's discard path, which must reach
        inside queued wire blocks during a retrospective repartition.
        """
        tids = self.tids()
        keep = [i for i, tid in enumerate(tids) if tid not in drop]
        removed = len(tids) - len(keep)
        if removed == 0:
            return self, 0
        return self.take(keep), removed

    @classmethod
    def concat(cls, parts: typing.Sequence["Batch"]) -> "Batch":
        """One batch holding every part's rows, in order.

        Column-backed when every part is column-backed with the same
        width (the wire-block reassembly path); otherwise falls back to
        row concatenation.
        """
        if len(parts) == 1:
            return parts[0]
        live = [part for part in parts if len(part)]
        if any(part.is_columnar for part in live):
            widths = {part.width for part in live}
            if len(widths) == 1:
                # Row-backed parts (replayed or resent blocks between
                # scan blocks) convert column-wise at their own size, so
                # the columnar blocks are never row-materialized.
                columns = [[] for _ in range(widths.pop())]
                tids: list[Tid] = []
                for part in live:
                    for accumulator, column in zip(columns, part.columns()):
                        accumulator.extend(column)
                    tids.extend(part.tids())
                return cls.from_columns(columns, tids)
        rows: list[Row] = []
        for part in parts:
            rows.extend(part.rows)
        return cls(rows)
