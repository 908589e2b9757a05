"""Unit tests for the basic physical operators."""

import pytest

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.operators import (
    HashJoin,
    OperationCall,
    Project,
    Select,
    TableScan,
)
from repro.engine.operators.base import END, Operator
from repro.engine.operators.sink import ResultSink
from repro.services.ws import WebServiceOperation

from tests.engine.conftest import drain


class ListSource(Operator):
    """Test source feeding a fixed list of rows."""

    def __init__(self, ctx, rows):
        super().__init__(ctx)
        self.rows = list(rows)
        self._cursor = 0

    def next_batch(self, max_rows):
        if self._cursor >= len(self.rows):
            return END
        row = self.rows[self._cursor]
        self._cursor += 1
        return Batch([row])
        yield  # pragma: no cover


def make_rows(values, prefix="s"):
    return [Row(tuple(v) if isinstance(v, (tuple, list)) else (v,),
                f"{prefix}#{i}") for i, v in enumerate(values)]


class TestTableScan:
    def test_scan_returns_all_rows_in_order(self, context, eval_ctx,
                                            small_gds):
        scan = TableScan(eval_ctx, small_gds)
        rows = drain(context.env, scan)
        assert len(rows) == 10
        assert [r.values[1] for r in rows] == list(range(10))

    def test_scan_charges_access_work(self, context, eval_ctx, small_gds):
        scan = TableScan(eval_ctx, small_gds)
        drain(context.env, scan)
        # 10 tuples x 2.0 work units on the host CPU.
        assert eval_ctx.machine.cpu.busy_time == pytest.approx(20.0)

    def test_scan_can_be_perturbed_by_label(self, context, eval_ctx,
                                            small_gds):
        from repro.grid import CostFactor
        eval_ctx.machine.add_perturbation(
            CostFactor(5.0, target="scan:small"))
        scan = TableScan(eval_ctx, small_gds)
        drain(context.env, scan)
        assert eval_ctx.machine.cpu.busy_time == pytest.approx(100.0)

    def test_reopen_restarts_cursor(self, context, eval_ctx, small_gds):
        scan = TableScan(eval_ctx, small_gds)
        first = drain(context.env, scan)
        second = drain(context.env, scan)
        assert len(first) == len(second) == 10


class TestSelectProject:
    def test_select_filters_rows(self, context, eval_ctx):
        source = ListSource(eval_ctx, make_rows(range(10)))
        select = Select(eval_ctx, source,
                        lambda row: row.values[0] % 2 == 0)
        rows = drain(context.env, select)
        assert [r.values[0] for r in rows] == [0, 2, 4, 6, 8]

    def test_select_empty_result(self, context, eval_ctx):
        source = ListSource(eval_ctx, make_rows(range(5)))
        select = Select(eval_ctx, source, lambda row: False)
        assert drain(context.env, select) == []

    def test_project_reorders_and_drops_columns(self, context, eval_ctx):
        source = ListSource(eval_ctx, make_rows([(1, "a"), (2, "b")]))
        project = Project(eval_ctx, source, [1])
        rows = drain(context.env, project)
        assert [r.values for r in rows] == [("a",), ("b",)]

    def test_project_preserves_provenance(self, context, eval_ctx):
        source = ListSource(eval_ctx, make_rows([(1, "a")]))
        project = Project(eval_ctx, source, [0])
        rows = drain(context.env, project)
        assert rows[0].tid == "s#0"


class TestOperationCall:
    def test_appends_result_column(self, context, eval_ctx):
        operation = WebServiceOperation("Upper", str.upper, 1.0)
        source = ListSource(eval_ctx, make_rows(["abc", "xyz"]))
        opcall = OperationCall(eval_ctx, source, operation, 0)
        rows = drain(context.env, opcall)
        assert [r.values for r in rows] == [("abc", "ABC"), ("xyz", "XYZ")]
        assert opcall.calls_made == 2

    def test_charges_base_work_under_ws_label(self, context, eval_ctx):
        operation = WebServiceOperation("Slow", lambda x: x, 10.0)
        source = ListSource(eval_ctx, make_rows(["a"]))
        opcall = OperationCall(eval_ctx, source, operation, 0)
        drain(context.env, opcall)
        assert eval_ctx.machine.cpu.busy_time == pytest.approx(
            10.0 + eval_ctx.cost.opcall_overhead_work)

    def test_perturbation_targets_operation_label(self, context, eval_ctx):
        from repro.grid import CostFactor
        operation = WebServiceOperation("Slow", lambda x: x, 10.0)
        eval_ctx.machine.add_perturbation(
            CostFactor(10.0, target=operation.work_label))
        source = ListSource(eval_ctx, make_rows(["a"]))
        drain(context.env, OperationCall(eval_ctx, source, operation, 0))
        assert eval_ctx.machine.cpu.busy_time == pytest.approx(
            100.0 + eval_ctx.cost.opcall_overhead_work)


class FakeConsumer(ListSource):
    """Stands in for an ExchangeConsumer feeding a join in unit tests."""

    def __init__(self, ctx, rows):
        super().__init__(ctx, rows)
        self.late_blocks = []

    def try_next(self):
        if self.late_blocks:
            return self.late_blocks.pop(0)
        return None
        yield  # pragma: no cover


class TestHashJoin:
    def build_join(self, eval_ctx, build_values, probe_values):
        build = FakeConsumer(eval_ctx, make_rows(build_values, "b"))
        probe = FakeConsumer(eval_ctx, make_rows(probe_values, "p"))
        return HashJoin(eval_ctx, build, probe, 0, 0), build, probe

    def test_basic_equi_join(self, context, eval_ctx):
        join, _b, _p = self.build_join(
            eval_ctx, [("k1", 1), ("k2", 2)], [("k1", "x"), ("k3", "y")])
        rows = drain(context.env, join)
        assert [r.values for r in rows] == [("k1", "x", "k1", 1)]

    def test_join_output_tid_composes_provenance(self, context, eval_ctx):
        join, _b, _p = self.build_join(eval_ctx, [("k", 1)], [("k", 2)])
        rows = drain(context.env, join)
        assert rows[0].tid == ("p#0", "b#0")

    def test_duplicate_build_keys_produce_all_matches(self, context,
                                                      eval_ctx):
        join, _b, _p = self.build_join(
            eval_ctx, [("k", 1), ("k", 2)], [("k", "x")])
        rows = drain(context.env, join)
        assert len(rows) == 2

    def test_empty_probe(self, context, eval_ctx):
        join, _b, _p = self.build_join(eval_ctx, [("k", 1)], [])
        assert drain(context.env, join) == []

    def test_empty_build(self, context, eval_ctx):
        join, _b, _p = self.build_join(eval_ctx, [], [("k", 1)])
        assert drain(context.env, join) == []

    def test_insert_build_is_idempotent_by_tid(self, eval_ctx):
        join, _b, _p = self.build_join(eval_ctx, [], [])
        row = Row(("k", 1), "b#9")
        join._insert_build_batch(Batch([row]))
        join._insert_build_batch(Batch([row, row]))
        assert join.state_size == 1

    def test_remove_build_drops_state(self, eval_ctx):
        join, _b, _p = self.build_join(eval_ctx, [], [])
        join._insert_build_batch(Batch([Row(("k", 1), "b#1"),
                                        Row(("k", 2), "b#2")]))
        assert join.remove_build({"b#1"}) == 1
        assert join.state_size == 1
        assert join.remove_build({"b#1"}) == 0  # already gone

    def test_late_build_rows_join_with_subsequent_probes(self, context,
                                                         eval_ctx):
        """Replayed build state must be visible to later probe tuples."""
        build = FakeConsumer(eval_ctx, make_rows([("k1", 1)], "b"))
        probe = FakeConsumer(eval_ctx,
                             make_rows([("k1", "x"), ("k2", "y")], "p"))
        join = HashJoin(eval_ctx, build, probe, 0, 0)
        # A build tuple for k2 arrives after the build phase, as a
        # retrospective replay would deliver it.
        build.late_blocks.append(Batch([Row(("k2", 7), "b#late")]))
        rows = drain(context.env, join)
        assert sorted(r.values[1] for r in rows) == ["x", "y"]

    def test_join_probe_work_label_is_perturbable(self, context, eval_ctx):
        from repro.grid import SleepInjection
        eval_ctx.machine.add_perturbation(
            SleepInjection(10.0, target="join-probe"))
        join, _b, _p = self.build_join(eval_ctx, [("k", 1)],
                                       [("k", "x"), ("k", "y")])
        drain(context.env, join)
        # Two probe tuples each slept 10 ms (sleep blocks, no CPU).
        assert context.env.now >= 20.0


class BlockSource(Operator):
    """Feeds fixed blocks, one per pull."""

    def __init__(self, ctx, blocks):
        super().__init__(ctx)
        self.blocks = list(blocks)

    def next_batch(self, max_rows):
        return self.blocks.pop(0) if self.blocks else END
        yield  # pragma: no cover


def columnar(values, tids):
    return Batch.from_columns([list(values)], list(tids))


def drive(env, sink):
    def pump():
        while (yield from sink.next_batch(32)) is not END:
            yield from sink.ctx.settle()

    env.run(until=env.process(pump()))


class TestResultSink:
    def test_keeps_each_tids_first_row(self, context, eval_ctx):
        first = columnar("ab", ["a", "b"])
        sink = ResultSink(eval_ctx, BlockSource(eval_ctx, [
            first,
            # An old tid and a repeat within the block.
            columnar("bccd", ["b", "c", "c", "d"]),
            # Nothing new.
            columnar("a", ["a"]),
            # Row-backed blocks stay row-backed.
            Batch([Row(("e",), "e"), Row(("x",), "a")]),
        ]))
        drive(context.env, sink)
        assert sink.duplicates_dropped == 4
        blocks = sink.final_blocks()
        assert blocks[0] is first
        assert [block.is_columnar for block in blocks] == [True, True, True,
                                                           False]
        assert [block.tids() for block in blocks] == [
            ["a", "b"], ["c", "d"], [], ["e"]]
        assert [value for block in blocks
                for (value,) in zip(*block.columns())] == [
            "a", "b", "c", "d", "e"]
        # The result owns a copy: a late block does not change it.
        sink.blocks.append(columnar("f", ["f"]))
        assert len(blocks) == 4
