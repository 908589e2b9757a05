"""Tuples with provenance identifiers.

Every base tuple carries a globally unique ``tid``.  Derived tuples
(projections, WS results, join outputs) carry tids composed from their
inputs' tids, so any result tuple can be deduplicated no matter how
many times a retrospective repartition replays its inputs.  This is
the mechanism that makes R1 state redistribution exactly-once.
"""

from __future__ import annotations

import dataclasses
import typing


#: Type of a provenance identifier: a base id or a tree of ids.
Tid = typing.Union[str, tuple]


@dataclasses.dataclass(frozen=True, slots=True)
class Row:
    """An immutable data tuple.

    (Named ``Row`` to avoid clashing with ``tuple``; the public API
    exposes it as ``repro.Row``.)

    Slotted: rows are the single most-allocated object in a run, and a
    slotted frozen dataclass avoids the per-instance ``__dict__``.
    """

    values: tuple
    tid: Tid

    def project(self, positions: typing.Sequence[int]) -> "Row":
        """New row keeping ``positions``; provenance is inherited."""
        return Row(tuple(self.values[p] for p in positions), self.tid)

    def extend(self, extra_values: tuple, other_tid: Tid) -> "Row":
        """Join-style combination with another row's values and tid."""
        return Row(self.values + extra_values, (self.tid, other_tid))

    def replace_values(self, values: tuple) -> "Row":
        """New row with different values, same provenance."""
        return Row(tuple(values), self.tid)


@dataclasses.dataclass(frozen=True, slots=True)
class ColumnPredicate:
    """A single-column predicate that exposes its structure.

    Callable on a :class:`Row` like any opaque predicate, but carrying
    ``position`` and ``test`` so the vectorized ``Select`` path can run
    ``test`` directly over a column array instead of materializing rows.
    ``description`` feeds plan explanations.
    """

    position: int
    test: typing.Callable[[typing.Any], bool]
    description: str = "predicate"

    def __call__(self, row: Row) -> bool:
        return self.test(row.values[self.position])


def make_base_tid(table_name: str, ordinal: int) -> str:
    """Provenance id for the ``ordinal``-th tuple of a base table."""
    return f"{table_name}#{ordinal}"
