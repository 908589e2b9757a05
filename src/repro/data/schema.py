"""Relational schemas.

Schemas are intentionally small: typed, named columns with byte widths
(the byte widths feed the network cost model).  Column references use
the ``alias.column`` form the demo queries use, but bare column names
resolve too when unambiguous.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import SchemaError

#: Supported column types and their default widths in bytes.
_DEFAULT_WIDTHS = {"int": 8, "float": 8, "str": 32}


@dataclasses.dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str = "str"
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.type not in _DEFAULT_WIDTHS:
            raise SchemaError(f"unsupported column type: {self.type}")
        if self.size_bytes <= 0:
            object.__setattr__(
                self, "size_bytes", _DEFAULT_WIDTHS[self.type])


class Schema:
    """An ordered list of columns, optionally qualified by an alias."""

    def __init__(self, columns: typing.Sequence[Column],
                 alias: str | None = None) -> None:
        if not columns:
            raise SchemaError("schema needs at least one column")
        self.columns = list(columns)
        self.alias = alias
        self._index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise SchemaError(f"duplicate column: {column.name}")
            self._index[column.name] = position

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def width_bytes(self) -> int:
        """Total tuple width in bytes."""
        return sum(column.size_bytes for column in self.columns)

    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    def position_of(self, reference: str) -> int:
        """Resolve ``column`` or ``alias.column`` to a position."""
        name = reference
        if "." in reference:
            alias, name = reference.split(".", 1)
            if self.alias is not None and alias != self.alias:
                raise SchemaError(
                    f"alias {alias!r} does not match schema alias "
                    f"{self.alias!r}")
        if name not in self._index:
            raise SchemaError(
                f"unknown column {reference!r}; have {self.names()}")
        return self._index[name]

    def with_alias(self, alias: str) -> "Schema":
        """Copy of this schema qualified by ``alias``."""
        return Schema(self.columns, alias=alias)

    def project(self, references: typing.Sequence[str]) -> "Schema":
        """Schema of a projection onto ``references``."""
        return Schema([self.columns[self.position_of(ref)]
                       for ref in references])

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output (this ++ other, deduplicating names)."""
        merged = list(self.columns)
        seen = {column.name for column in merged}
        for column in other.columns:
            name = column.name
            while name in seen:
                name = f"{name}_r"
            seen.add(name)
            merged.append(Column(name, column.type, column.size_bytes))
        return Schema(merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Schema {self.names()}>"
