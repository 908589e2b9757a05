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


class TidLedger:
    """A set of tids kept as the tid lists of the blocks that entered it:
    one ``append`` per block, no per-tid memory.  A list is adopted and
    never mutated (as a ``Batch``'s, decision 42), and :meth:`remove`
    rebuilds the lists it touches, so a snapshot keeps its content."""

    def __init__(self, blocks: typing.Iterable[list[Tid]] = ()) -> None:
        self._blocks = list(blocks)

    def add(self, tids: list[Tid]) -> None:
        self._blocks.append(tids)

    def snapshot(self) -> tuple[list[Tid], ...]:
        return tuple(self._blocks)

    def members(self) -> set[Tid]:
        return set().union(*self._blocks)

    def outside(self, blocks: tuple[list[Tid], ...]) -> set[Tid]:
        """``blocks``' tids not in here, in a table sized to them."""
        tids = set().union(*blocks)
        tids.difference_update(*self._blocks)
        return set(tids)

    def remove(self, drop: typing.AbstractSet[Tid]) -> set[Tid]:
        """Take ``drop``'s tids out; returns those that were in."""
        removed, kept = set(), []
        for tids in self._blocks:
            if not drop.isdisjoint(tids):
                removed.update(drop.intersection(tids))
                tids = [tid for tid in tids if tid not in drop]
            kept.append(tids)
        self._blocks = kept
        return removed


@dataclasses.dataclass(frozen=True, slots=True)
class Row:
    """An immutable data tuple, the public row type (``repro.Row``):
    the engine carries ``Batch`` columns, not rows (decision 47)."""

    values: tuple
    tid: Tid

    def project(self, positions: typing.Sequence[int]) -> "Row":
        """New row keeping ``positions``; provenance is inherited."""
        return Row(tuple(self.values[p] for p in positions), self.tid)

    def extend(self, extra_values: tuple, other_tid: Tid) -> "Row":
        """Join-style combination with another row's values and tid."""
        return Row(self.values + extra_values, (self.tid, other_tid))


@dataclasses.dataclass(frozen=True, slots=True)
class ColumnPredicate:
    """A single-column predicate that exposes its structure.

    ``Select`` runs ``test`` directly over the column at ``position``;
    the predicate is also callable on a :class:`Row`.  ``description``
    feeds plan explanations.
    """

    position: int
    test: typing.Callable[[typing.Any], bool]
    description: str = "predicate"

    def __call__(self, row: Row) -> bool:
        return self.test(row.values[self.position])


def make_base_tid(table_name: str, ordinal: int) -> str:
    """Provenance id for the ``ordinal``-th tuple of a base table."""
    return f"{table_name}#{ordinal}"
