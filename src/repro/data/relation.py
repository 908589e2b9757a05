"""In-memory relations backing the Grid Data Services."""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.schema import Schema
from repro.data.tuples import Row, make_base_tid
from repro.errors import SchemaError


class Relation:
    """A named table of :class:`~repro.data.tuples.Row` objects."""

    def __init__(self, name: str, schema: Schema,
                 rows: typing.Sequence[Row] = ()) -> None:
        self.name = name
        self.schema = schema
        self.rows: list[Row] = list(rows)
        for row in self.rows:
            self._check(row)
        # Columnar snapshot for block reads, built lazily and
        # invalidated by append(); the row count tracks staleness.
        self._columns: list[list] | None = None
        self._column_tids: list | None = None
        self._columns_rowcount = -1

    @classmethod
    def from_values(cls, name: str, schema: Schema,
                    value_rows: typing.Iterable[tuple]) -> "Relation":
        """Build a relation assigning fresh provenance ids."""
        rows = [Row(tuple(values), make_base_tid(name, ordinal))
                for ordinal, values in enumerate(value_rows)]
        return cls(name, schema, rows)

    def _check(self, row: Row) -> None:
        if len(row.values) != len(self.schema):
            raise SchemaError(
                f"{self.name}: row arity {len(row.values)} != schema arity "
                f"{len(self.schema)}")

    def append(self, row: Row) -> None:
        self._check(row)
        self.rows.append(row)

    def __iter__(self) -> typing.Iterator[Row]:
        return iter(self.rows)

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def tuple_bytes(self) -> int:
        return self.schema.width_bytes

    def read_block(self, start: int, count: int) -> Batch:
        """Rows ``[start, start+count)`` as a columnar batch.

        Decomposes the stored rows into per-column lists once (cached
        until the relation grows), so repeated scans slice columns
        instead of touching row objects.  Values and tids are exactly
        those of ``self.rows[start:start+count]``.
        """
        if self._columns_rowcount != len(self.rows):
            width = len(self.schema)
            rows = self.rows
            self._columns = [[row.values[position] for row in rows]
                             for position in range(width)]
            self._column_tids = [row.tid for row in rows]
            self._columns_rowcount = len(rows)
        stop = start + count
        return Batch.from_columns(
            [column[start:stop] for column in self._columns],
            self._column_tids[start:stop])

    def column_values(self, reference: str) -> list:
        """All values of one column (test/analysis helper)."""
        position = self.schema.position_of(reference)
        return [row.values[position] for row in self.rows]
