"""Grouped aggregation over the deduplicated result stream.

The :class:`GroupAggregator` is attached to the coordinator's result
sink and folds the accepted blocks' columns *after* provenance
deduplication, so aggregates are exactly-once under retrospective
repartitioning and failure recovery by construction — a replayed tuple
can reach the sink twice but contributes to the aggregates once.
"""

from __future__ import annotations

import itertools
import typing

from repro.data.batch import Batch
from repro.errors import ExecutionError


class _Count:
    def initial(self):
        return 0

    def add(self, state, value):
        return state + 1

    def result(self, state):
        return state


class _Sum:
    def initial(self):
        return 0.0

    def add(self, state, value):
        return state + value

    def result(self, state):
        return state


class _Avg:
    def initial(self):
        return (0.0, 0)

    def add(self, state, value):
        total, count = state
        return (total + value, count + 1)

    def result(self, state):
        total, count = state
        if count == 0:
            return 0.0
        return total / count


class _Min:
    def initial(self):
        return None

    def add(self, state, value):
        if state is None or value < state:
            return value
        return state

    def result(self, state):
        return state


class _Max:
    def initial(self):
        return None

    def add(self, state, value):
        if state is None or value > state:
            return value
        return state

    def result(self, state):
        return state


AGGREGATE_IMPLEMENTATIONS = {
    "count": _Count(),
    "sum": _Sum(),
    "avg": _Avg(),
    "min": _Min(),
    "max": _Max(),
}


class GroupAggregator:
    """Incremental GROUP BY evaluation.

    ``aggregates`` is a list of ``(function_name, input_position)``
    pairs (position None for ``count(*)``); ``output_layout`` lists the
    select items in order as ``("group", i)`` / ``("agg", j)`` entries.
    """

    def __init__(self, group_positions: typing.Sequence[int],
                 aggregates: typing.Sequence[tuple],
                 output_layout: typing.Sequence[tuple]) -> None:
        self.group_positions = list(group_positions)
        self.aggregates = []
        for function_name, position in aggregates:
            try:
                implementation = AGGREGATE_IMPLEMENTATIONS[function_name]
            except KeyError:
                raise ExecutionError(
                    f"unknown aggregate {function_name!r}") from None
            self.aggregates.append((implementation, position))
        self.output_layout = list(output_layout)
        self._groups: dict[tuple, list] = {}

    def add(self, block: Batch) -> None:
        """Fold an (already deduplicated) block into its groups, one
        aggregate column at a time in row order."""
        columns = block.columns()
        if self.group_positions:
            keys = zip(*[columns[p] for p in self.group_positions])
        else:
            keys = itertools.repeat((), len(block))
        groups = self._groups
        group_states = []
        for key in keys:
            states = groups.get(key)
            if states is None:
                states = groups[key] = [implementation.initial()
                                        for implementation, _p
                                        in self.aggregates]
            group_states.append(states)
        for index, (implementation, position) in enumerate(self.aggregates):
            add = implementation.add
            values = (columns[position] if position is not None
                      else itertools.repeat(None))
            for states, value in zip(group_states, values):
                states[index] = add(states[index], value)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def results(self) -> Batch:
        """The final tuples, one per group, in select-list column order.

        Groups are emitted in sorted key order for determinism.
        """
        value_rows = []
        tids = []
        for key in sorted(self._groups, key=repr):
            states = self._groups[key]
            values = []
            for tag, index in self.output_layout:
                if tag == "group":
                    values.append(key[index])
                else:
                    implementation, _position = self.aggregates[index]
                    values.append(implementation.result(states[index]))
            value_rows.append(values)
            tids.append(("agg",) + key)
        return Batch([list(column) for column in zip(*value_rows)], tids)
