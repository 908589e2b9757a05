"""In-memory, column-backed relations backing the Grid Data Services."""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.schema import Schema
from repro.data.tuples import Row, make_base_tid
from repro.errors import SchemaError


class Relation:
    """A named table stored as one value list per column plus a tid
    list, the layout :meth:`read_block` slices; :class:`~repro.data.
    tuples.Row` objects are built only when ``rows`` is read."""

    def __init__(self, name: str, schema: Schema,
                 rows: typing.Sequence[Row] = ()) -> None:
        self.name = name
        self.schema = schema
        self._columns: list[list] = [[] for _ in range(len(schema))]
        self._tids: list = []
        self._rows: list[Row] | None = None
        for row in rows:
            self.append(row)

    @classmethod
    def from_values(cls, name: str, schema: Schema,
                    value_rows: typing.Iterable[tuple]) -> "Relation":
        """Build a relation assigning fresh provenance ids."""
        relation = cls(name, schema)
        for ordinal, values in enumerate(value_rows):
            relation.append(Row(tuple(values), make_base_tid(name, ordinal)))
        return relation

    @classmethod
    def from_columns(cls, name: str, schema: Schema,
                     columns: typing.Sequence[list]) -> "Relation":
        """Adopt one value list per column, assigning fresh provenance
        ids in list order."""
        if len(columns) != len(schema) or len(set(map(len, columns))) > 1:
            raise SchemaError(f"{name}: need {len(schema)} columns of "
                              f"equal length, got {list(map(len, columns))}")
        relation = cls(name, schema)
        relation._columns = list(columns)
        relation._tids = [make_base_tid(name, ordinal)
                          for ordinal in range(len(columns[0]))]
        return relation

    def append(self, row: Row) -> None:
        if len(row.values) != len(self.schema):
            raise SchemaError(
                f"{self.name}: row arity {len(row.values)} != schema arity "
                f"{len(self.schema)}")
        for column, value in zip(self._columns, row.values):
            column.append(value)
        self._tids.append(row.tid)
        if self._rows is not None:
            self._rows.append(row)

    @property
    def rows(self) -> list[Row]:
        if self._rows is None:
            self._rows = list(map(Row, zip(*self._columns), self._tids))
        return self._rows

    def __iter__(self) -> typing.Iterator[Row]:
        return iter(self.rows)

    @property
    def cardinality(self) -> int:
        return len(self._tids)

    @property
    def tuple_bytes(self) -> int:
        return self.schema.width_bytes

    def read_block(self, start: int, count: int) -> Batch:
        """Rows ``[start, start+count)`` as a batch of column slices."""
        stop = start + count
        return Batch(
            [column[start:stop] for column in self._columns],
            self._tids[start:stop])

    def column_values(self, reference: str) -> list:
        """All values of one column (test/analysis helper)."""
        return list(self._columns[self.schema.position_of(reference)])
