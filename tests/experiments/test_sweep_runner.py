"""Tests for the parallel sweep runner, ``run_table`` and the
experiments CLI.

The contract under test: a sweep's outcome — returned values *and*
metrics records — is byte-identical whatever ``jobs`` is, because each
cell runs against a private sink and results are merged in cell-index
order, never completion order.
"""

import types

import pytest

from repro.experiments import __main__ as experiments_main
from repro.experiments import harness, overheads
from repro.experiments.harness import (
    ExperimentReport,
    MetricsSink,
    Stat,
    SweepCell,
    SweepRunner,
    run_table,
    set_metrics_sink,
)


def _double(x):
    return 2 * x


def _emitting(x):
    # Cells report through the ambient sink exactly as execute() does;
    # the runner must give each cell a private one and merge in order.
    harness._metrics_sink.records.append({"cell": x})
    return x


def _emitting_stats(x):
    # A run_table cell: reports like _emitting, returns statistics-like
    # attributes.
    harness._metrics_sink.records.append({"cell": x})
    return types.SimpleNamespace(response_time_ms=float(x), result_count=x)


def _boom():
    raise RuntimeError("cell exploded")


def _cells(fn, count):
    return [SweepCell(f"c{i}", fn, {"x": i}) for i in range(count)]


class TestSweepRunner:
    def test_serial_preserves_cell_order(self):
        assert SweepRunner(1).run(_cells(_double, 5)) == [0, 2, 4, 6, 8]

    def test_parallel_matches_serial(self):
        cells = _cells(_double, 7)
        assert SweepRunner(4).run(cells) == SweepRunner(1).run(cells)

    def test_jobs_below_one_clamped_to_serial(self):
        assert SweepRunner(0).jobs == 1
        assert SweepRunner(-3).jobs == 1

    def test_empty_sweep(self):
        assert SweepRunner(4).run([]) == []

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_metrics_merged_in_cell_index_order(self, jobs):
        sink = MetricsSink()
        previous = set_metrics_sink(sink)
        try:
            values = SweepRunner(jobs).run(_cells(_emitting, 6))
        finally:
            set_metrics_sink(previous)
        assert values == list(range(6))
        assert sink.records == [{"cell": i} for i in range(6)]

    def test_no_ambient_sink_discards_cell_records(self):
        previous = set_metrics_sink(None)
        try:
            assert SweepRunner(1).run(_cells(_emitting, 3)) == [0, 1, 2]
        finally:
            set_metrics_sink(previous)

    def test_degrades_to_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr(harness, "_fork_context", lambda: None)
        assert SweepRunner(8).run(_cells(_double, 4)) == [0, 2, 4, 6]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_cell_exception_propagates(self, jobs):
        cells = [SweepCell("ok", _double, {"x": 1}),
                 SweepCell("bad", _boom)]
        with pytest.raises(RuntimeError, match="cell exploded"):
            SweepRunner(jobs).run(cells)

    def test_overheads_rows_are_jobs_invariant(self, experiments):
        assert (overheads.run_overheads(jobs=2).rows
                == experiments.report("overheads").rows)


def _stat_cell(label, x):
    return SweepCell(label, _emitting_stats, {"x": x})


def _fill(rows, jobs):
    """``run_table`` under a fresh sink: (filled rows, records)."""
    sink = MetricsSink()
    previous = set_metrics_sink(sink)
    try:
        return run_table(rows, jobs), sink.records
    finally:
        set_metrics_sink(previous)


class TestRunTable:
    BASE = _stat_cell("base", 4)
    ROWS = [["a", Stat(_stat_cell("a", 8), per=BASE), 1.5],
            ["b", Stat(_stat_cell("b", 2), per=BASE),
             Stat(_stat_cell("b", 2), field="result_count")],
            ["c", Stat(_stat_cell("c", 6))]]

    def test_each_label_runs_once_in_first_appearance_order(self):
        _rows, records = _fill(self.ROWS, 1)
        # per before cell: the baseline runs first; "b" runs once
        # although two entries name it.
        assert records == [{"cell": 4}, {"cell": 8}, {"cell": 2},
                           {"cell": 6}]

    def test_ratio_and_field_resolution(self):
        rows, _records = _fill(self.ROWS, 1)
        assert rows == [["a", 2.0, 1.5], ["b", 0.5, 2], ["c", 6.0]]

    def test_rows_and_records_jobs_invariant(self):
        assert _fill(self.ROWS, 3) == _fill(self.ROWS, 1)

    def test_conflicting_redeclared_label_raises(self):
        rows = [[Stat(_stat_cell("x", 1))], [Stat(_stat_cell("x", 2))]]
        with pytest.raises(ValueError, match="'x'"):
            run_table(rows)


class TestExperimentsCliJobs:
    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main.main(["fig2a", "--jobs", "0", "--no-metrics"])

    def test_fig2a_stdout_byte_identical_across_jobs(self, capsys):
        assert experiments_main.main(
            ["fig2a", "--jobs", "1", "--no-metrics"]) == 0
        serial = capsys.readouterr().out
        assert experiments_main.main(
            ["fig2a", "--jobs", "4", "--no-metrics"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "fig2a" in serial

    def test_fig2a_metrics_byte_identical_across_jobs(self, tmp_path,
                                                      capsys):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_dir.mkdir()
        parallel_dir.mkdir()
        assert experiments_main.main(
            ["fig2a", "--jobs", "1",
             "--metrics-dir", str(serial_dir)]) == 0
        assert experiments_main.main(
            ["fig2a", "--jobs", "4",
             "--metrics-dir", str(parallel_dir)]) == 0
        capsys.readouterr()
        serial = (serial_dir / "METRICS_fig2a.jsonl").read_bytes()
        parallel = (parallel_dir / "METRICS_fig2a.jsonl").read_bytes()
        assert serial == parallel
        assert serial


def _stub(experiment_id):
    def run(jobs=1):
        return ExperimentReport(experiment_id, "stub", ["x"], [[jobs]])
    return run


class TestExperimentsCliSelection:
    @pytest.fixture(autouse=True)
    def stub_experiments(self, monkeypatch):
        monkeypatch.setattr(experiments_main, "EXPERIMENTS",
                            {"one": _stub("one"), "two": _stub("two")})

    @staticmethod
    def _headers(capsys):
        return [line.split(":")[0] for line in
                capsys.readouterr().out.splitlines()
                if line.startswith("== ")]

    def test_all_keeps_the_other_named_ids(self, capsys):
        assert experiments_main.main(
            ["all", "fuzz", "--budget", "0", "--no-metrics"]) == 0
        assert self._headers(capsys) == ["== one", "== two", "== fuzz"]

    def test_all_expands_in_place_without_duplicates(self, capsys):
        assert experiments_main.main(
            ["two", "all", "one", "--no-metrics"]) == 0
        assert self._headers(capsys) == ["== two", "== one"]
