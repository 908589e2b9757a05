"""Unit and property tests for the group aggregator."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.operators.aggregate import GroupAggregator
from repro.errors import ExecutionError


def rows_from(values):
    return [Row(tuple(v), f"t#{i}") for i, v in enumerate(values)]


def fold(agg, *rows):
    """Fold ``rows`` one-row block by one-row block; the result rows."""
    for row in rows:
        agg.add(Batch.from_rows([row]))
    return agg.results().rows


def make(group_positions, aggregates, layout=None):
    if layout is None:
        layout = ([("group", i) for i in range(len(group_positions))]
                  + [("agg", j) for j in range(len(aggregates))])
    return GroupAggregator(group_positions, aggregates, layout)


class TestAggregateFunctions:
    def test_count_star(self):
        agg = make([], [("count", None)])
        results = fold(agg, *rows_from([("a",), ("b",), ("c",)]))
        assert results[0].values == (3,)

    def test_sum_avg_min_max(self):
        agg = make([], [("sum", 0), ("avg", 0), ("min", 0), ("max", 0)])
        results = fold(agg, *rows_from([(4,), (6,), (2,)]))
        assert results[0].values == (12.0, 4.0, 2, 6)

    def test_grouping_splits_by_key(self):
        agg = make([0], [("sum", 1)])
        agg.add(Batch.from_rows(rows_from([("x", 1), ("y", 10), ("x", 2)])))
        results = {r.values[0]: r.values[1] for r in agg.results().rows}
        assert results == {"x": 3.0, "y": 10.0}

    def test_layout_reorders_output(self):
        agg = make([0], [("count", None)],
                   layout=[("agg", 0), ("group", 0)])
        assert fold(agg, Row(("x", 1), "t#0"))[0].values == (1, "x")

    def test_empty_aggregator_has_no_groups(self):
        agg = make([0], [("count", None)])
        assert agg.results().rows == []
        assert agg.group_count == 0

    def test_results_sorted_by_group_key(self):
        agg = make([0], [("count", None)])
        results = fold(agg, *(Row((key,), f"t#{key}")
                              for key in ("c", "a", "b")))
        assert [r.values[0] for r in results] == ["a", "b", "c"]

    def test_result_rows_carry_group_provenance(self):
        agg = make([0], [("count", None)])
        assert fold(agg, Row(("x",), "t#0"))[0].tid == ("agg", "x")

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExecutionError):
            make([], [("median", 0)])


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.floats(min_value=-100, max_value=100)),
                min_size=1, max_size=60))
@settings(max_examples=60)
def test_aggregates_match_python_reference(pairs):
    agg = make([0], [("count", None), ("sum", 1), ("avg", 1),
                     ("min", 1), ("max", 1)])
    agg.add(Batch.from_rows(rows_from(pairs)))
    by_key = {}
    for key, value in pairs:
        by_key.setdefault(key, []).append(value)
    for result in agg.results().rows:
        key, count, total, average, minimum, maximum = result.values
        values = by_key[key]
        assert count == len(values)
        assert total == pytest.approx(sum(values))
        assert average == pytest.approx(statistics.fmean(values))
        assert minimum == min(values)
        assert maximum == max(values)
