"""Unit tests for the columnar Batch backing.

Both backings — row list and parallel column lists — must expose the
same API with the same ordering; these tests pin the conversion
points (lazy row materialization, cached column build) and the
backing-preserving transforms the vectorized operators rely on.
"""

from repro.data.batch import Batch
from repro.data.tuples import Row


def _rows(count, width=3):
    return [Row(tuple(f"v{r}c{c}" for c in range(width)), ("t", r))
            for r in range(count)]


def _columnar(count, width=3):
    rows = _rows(count, width)
    return Batch.from_columns(
        [[row.values[c] for row in rows] for c in range(width)],
        [row.tid for row in rows])


class TestBackings:
    def test_from_columns_is_columnar(self):
        batch = _columnar(4)
        assert batch.is_columnar
        assert len(batch) == 4
        assert batch.width == 3

    def test_row_backed_is_not_columnar(self):
        batch = Batch(_rows(4))
        assert not batch.is_columnar
        assert batch.width == 3

    def test_lazy_rows_match_row_backing(self):
        """Materialized rows are value- and tid-identical."""
        assert _columnar(5).rows == _rows(5)

    def test_rows_materialized_once(self):
        batch = _columnar(3)
        assert batch.rows is batch.rows

    def test_columns_cached_on_row_backing(self):
        batch = Batch(_rows(3))
        assert batch.columns() is batch.columns()
        assert batch.columns() == _columnar(3).columns()
        assert batch.tids() == [("t", 0), ("t", 1), ("t", 2)]

    def test_iteration_and_indexing(self):
        batch = _columnar(4)
        assert list(batch) == _rows(4)
        assert batch[2] == _rows(4)[2]

    def test_empty_columnar(self):
        batch = Batch.from_columns([[], [], []], [])
        assert len(batch) == 0
        assert not batch
        assert batch.rows == []

    def test_zero_width_rows(self):
        batch = Batch.from_columns([], [("t", 0), ("t", 1)])
        assert len(batch) == 2
        assert batch.rows == [Row((), ("t", 0)), Row((), ("t", 1))]


class TestTransforms:
    def test_slice_preserves_columnar_backing(self):
        piece = _columnar(6).slice(1, 4)
        assert piece.is_columnar
        assert piece.rows == _rows(6)[1:4]

    def test_split_at_preserves_backing_and_order(self):
        head, rest = _columnar(6).split_at(2)
        assert head.is_columnar and rest.is_columnar
        assert head.rows + rest.rows == _rows(6)

    def test_select_columns(self):
        projected = _columnar(4).select_columns([2, 0])
        assert projected.is_columnar
        assert projected.width == 2
        source = _rows(4)
        assert projected.rows == [
            Row((row.values[2], row.values[0]), row.tid) for row in source]

    def test_filter_tids_columnar(self):
        batch = _columnar(5)
        kept, removed = batch.filter_tids({("t", 1), ("t", 3)})
        assert removed == 2
        assert kept.is_columnar
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
        assert merged.is_columnar
        assert merged.rows == _rows(3) + _rows(2)

    def test_mixed_backings_stay_columnar(self):
        """A stray row-backed part between columnar wire blocks must
        not force row materialization of the blocks."""
        blocks = [_columnar(3), Batch(_rows(1)), _columnar(2)]
        merged = Batch.concat(blocks)
        assert merged.is_columnar
        assert merged.rows == _rows(3) + _rows(1) + _rows(2)

    def test_all_row_backed_stays_row_backed(self):
        merged = Batch.concat([Batch(_rows(2)), Batch(_rows(3))])
        assert not merged.is_columnar
        assert merged.rows == _rows(2) + _rows(3)

    def test_single_part_passthrough(self):
        part = _columnar(3)
        assert Batch.concat([part]) is part

    def test_empty_parts_dropped(self):
        merged = Batch.concat([Batch([]), _columnar(2),
                               Batch.from_columns([[], [], []], [])])
        assert merged.rows == _rows(2)

    def test_width_mismatch_falls_back_to_rows(self):
        merged = Batch.concat([_columnar(2, width=2), _columnar(2, width=3)])
        assert not merged.is_columnar
        assert len(merged) == 4


class TestBatchSizeOneDegradation:
    def test_single_row_slices(self):
        batch = _columnar(1)
        head, rest = batch.split_at(1)
        assert head.rows == _rows(1)
        assert len(rest) == 0
