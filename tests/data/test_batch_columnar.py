"""Unit tests for the one ``Batch`` representation.

A batch is parallel column lists plus a tid column (DESIGN decision
47); these tests pin the two edges where ``Row`` objects meet it —
``from_rows`` in, the uncached ``rows`` view out — and the transforms
the vectorized operators rely on.
"""

import pytest

from repro.data.batch import Batch
from repro.data.tuples import Row


def _rows(count, width=3):
    return [Row(tuple(f"v{r}c{c}" for c in range(width)), ("t", r))
            for r in range(count)]


def _columnar(count, width=3):
    rows = _rows(count, width)
    return Batch(
        [[row.values[c] for row in rows] for c in range(width)],
        [row.tid for row in rows])


class TestBackings:
    def test_from_columns_is_columnar(self):
        batch = _columnar(4)
        assert len(batch) == 4
        assert batch.width == 3

    def test_lazy_rows_match_row_backing(self):
        """Materialized rows are value- and tid-identical."""
        assert _columnar(5).rows == _rows(5)

    def test_rows_are_built_on_every_read(self):
        batch = _columnar(3)
        assert batch.rows is not batch.rows
        assert batch.rows == batch.rows == _rows(3)

    def test_columns_cached_on_row_backing(self):
        batch = Batch.from_rows(_rows(3))
        assert batch.columns() is batch.columns()
        assert batch.columns() == _columnar(3).columns()
        assert batch.tids() == [("t", 0), ("t", 1), ("t", 2)]

    def test_iteration_and_indexing(self):
        """Neither exists: no loop can build rows by accident."""
        batch = _columnar(4)
        with pytest.raises(TypeError):
            iter(batch)
        with pytest.raises(TypeError):
            batch[2]

    def test_empty_columnar(self):
        batch = Batch([[], [], []], [])
        assert len(batch) == 0
        assert not batch
        assert batch.rows == []

    def test_zero_width_rows(self):
        batch = Batch([], [("t", 0), ("t", 1)])
        assert len(batch) == 2
        assert batch.rows == [Row((), ("t", 0)), Row((), ("t", 1))]


class TestTransforms:
    def test_slice_preserves_columnar_backing(self):
        piece = _columnar(6).slice(1, 4)
        assert piece.rows == _rows(6)[1:4]

    def test_split_at_preserves_backing_and_order(self):
        head, rest = _columnar(6).split_at(2)
        assert head.rows + rest.rows == _rows(6)

    def test_select_columns(self):
        projected = _columnar(4).select_columns([2, 0])
        assert projected.width == 2
        source = _rows(4)
        assert projected.rows == [
            Row((row.values[2], row.values[0]), row.tid) for row in source]

    def test_filter_tids_columnar(self):
        batch = _columnar(5)
        kept, removed = batch.filter_tids({("t", 1), ("t", 3)})
        assert removed == 2
        assert kept.rows == [r for r in _rows(5)
                             if r.tid not in {("t", 1), ("t", 3)}]

    def test_filter_tids_no_hit_shares_storage(self):
        batch = _columnar(5)
        kept, removed = batch.filter_tids({("x", 9)})
        assert removed == 0
        assert kept is batch


class TestConcat:
    def test_all_columnar_stays_columnar(self):
        merged = Batch.concat([_columnar(3), _columnar(2)])
        assert merged.rows == _rows(3) + _rows(2)

    def test_single_part_passthrough(self):
        part = _columnar(3)
        assert Batch.concat([part]) is part

    def test_empty_parts_dropped(self):
        merged = Batch.concat([Batch.from_rows([]), _columnar(2),
                               Batch([[], [], []], [])])
        assert merged.rows == _rows(2)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Batch.concat([_columnar(2, width=2), _columnar(2, width=3)])


class TestBatchSizeOneDegradation:
    def test_single_row_slices(self):
        batch = _columnar(1)
        head, rest = batch.split_at(1)
        assert head.rows == _rows(1)
        assert len(rest) == 0
