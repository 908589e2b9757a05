"""Shared experiment harness.

Every experiment in the paper's §3.2 is a set of full query runs on
fresh demo grids, normalised to the *no adaptivity / no imbalance* run
of the same query and data size.  This module provides the run
plumbing: grid construction (with recovery logging enabled exactly
when the response policy is retrospective, mirroring the paper's
configurations), perturbation application, metrics collection, the
sweep runner every experiment declares its runs for, and
:func:`run_table`, which fills a table's declared rows from one sweep.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import typing

from repro.config import (
    AdaptivityConfig,
    EngineConfig,
    FaultToleranceConfig,
    RESPONSE_R1,
    SchedulerConfig,
)
from repro.dqp.gdqs import QueryResult, QueryStatistics
from repro.sched import WorkloadDriver, WorkloadReport, WorkloadSpec
from repro.workloads.proteins import DemoGrid, DemoGridSpec
from repro.workloads.queries import Q1, Q2

QUERIES = {"Q1": Q1, "Q2": Q2}


def engine_config_for(adaptivity: AdaptivityConfig | None) -> EngineConfig:
    """Recovery logging is active only for retrospective (R1) runs.

    The static system and prospective (R2) runs do not pay the log
    management cost — that difference is exactly the overhead gap the
    paper reports between the two response types.
    """
    logging_enabled = (adaptivity is not None and adaptivity.enabled
                       and adaptivity.response == RESPONSE_R1)
    return EngineConfig(logging_enabled=logging_enabled)


def execute(query_key: str,
            adaptivity: AdaptivityConfig | None = None,
            perturb: typing.Callable[[DemoGrid], None] | None = None,
            spec: DemoGridSpec | None = None,
            degree: int | None = None,
            engine_config: EngineConfig | None = None,
            fault_tolerance: FaultToleranceConfig | None = None
            ) -> QueryResult:
    """One full query run on a fresh grid."""
    if query_key not in QUERIES:
        raise ValueError(f"unknown query {query_key!r}; have Q1, Q2")
    adaptivity = adaptivity or AdaptivityConfig.disabled()
    if engine_config is None:
        engine_config = engine_config_for(adaptivity)
    grid = DemoGrid(spec=spec, engine_config=engine_config,
                    fault_tolerance=fault_tolerance)
    if perturb is not None:
        perturb(grid)
    result = grid.run(QUERIES[query_key], adaptivity, degree=degree)
    collect_metrics(grid, query=query_key, query_id=result.query_id,
                    adaptive=adaptivity.enabled)
    return result


class MetricsSink:
    """Accumulates per-grid metrics snapshots across an experiment.

    Experiments build a fresh grid per run, so the registry alone
    cannot aggregate a whole table's worth of telemetry.  Install a
    sink with :func:`set_metrics_sink`; every run reported through
    :func:`collect_metrics` (as :func:`execute` and the multiquery
    driver do) appends the grid's instruments and per-query records,
    tagged with a run label, and the caller writes one JSONL file per
    experiment.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    def collect(self, grid: DemoGrid, run: dict) -> None:
        for record in grid.context.metrics.snapshot():
            record["run"] = dict(run)
            self.records.append(record)

    def write_jsonl(self, path) -> int:
        """Write collected records as JSON Lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        return len(self.records)


_metrics_sink: MetricsSink | None = None


def set_metrics_sink(sink: MetricsSink | None) -> MetricsSink | None:
    """Install the experiment-wide sink; returns the previous one."""
    global _metrics_sink
    previous = _metrics_sink
    _metrics_sink = sink
    return previous


def collect_metrics(grid: DemoGrid, **run_label) -> None:
    """Report one finished grid's metrics to the active sink, if any."""
    if _metrics_sink is not None:
        _metrics_sink.collect(grid, run_label)


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One independent unit of an experiment sweep, declared as data.

    ``fn`` must be a module-level callable and ``kwargs`` built from
    picklable values (primitives, frozen dataclasses, partials of
    module-level functions), so a cell can cross a ``multiprocessing``
    fork boundary unchanged.  Every cell builds its own fresh grids, so
    cells share no mutable state and can run in any order — the runner
    still *reports* them in declaration order.
    """

    label: str
    fn: typing.Callable[..., typing.Any]
    kwargs: dict = dataclasses.field(default_factory=dict)


def _run_cell(indexed_cell: tuple[int, SweepCell]
              ) -> tuple[int, typing.Any, list[dict]]:
    """Execute one cell under a private metrics sink.

    Used verbatim by both the serial and the pooled paths (in a worker
    process the installed sink is the fork-inherited parent one, which
    must not be written to), so a sweep's outcome — values and metrics
    records alike — is independent of ``jobs``.
    """
    index, cell = indexed_cell
    sink = MetricsSink()
    previous = set_metrics_sink(sink)
    try:
        value = cell.fn(**cell.kwargs)
    finally:
        set_metrics_sink(previous)
    return index, value, sink.records


def _fork_context():
    """The ``fork`` multiprocessing context, or None where unavailable.

    Fork keeps workers cheap (no re-import, warm dataset caches) and is
    the only start method that inherits module state without pickling
    the world; on platforms without it (e.g. Windows) sweeps degrade
    gracefully to serial execution rather than risking spawn-related
    import side effects.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, AttributeError):  # pragma: no cover - exotic
        pass
    return None  # pragma: no cover - non-fork platforms


class SweepRunner:
    """Runs a sweep's cells, optionally over a process pool.

    ``jobs=1`` (the default) preserves the historical strictly-serial
    behaviour.  With ``jobs>1`` the cells fan out over a ``fork``-based
    ``multiprocessing.Pool``; results are merged **by cell index**, not
    completion order, and each cell's metrics records are appended to
    the ambient :class:`MetricsSink` in that same order — so reports
    and metrics files are byte-identical whatever ``jobs`` is.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def run(self, cells: typing.Sequence[SweepCell]) -> list:
        """Execute ``cells``; returns their values in declaration order."""
        indexed = list(enumerate(cells))
        jobs = min(self.jobs, len(indexed))
        context = _fork_context() if jobs > 1 else None
        if context is None:
            outcomes = [_run_cell(item) for item in indexed]
        else:
            with context.Pool(processes=jobs) as pool:
                outcomes = sorted(pool.imap_unordered(_run_cell, indexed))
        sink = _metrics_sink
        values = []
        for _index, value, records in outcomes:
            if sink is not None:
                sink.records.extend(records)
            values.append(value)
        return values


def drive_workload(spec: DemoGridSpec, seed: int,
                   scheduler: SchedulerConfig, workload: WorkloadSpec,
                   fault_tolerance: FaultToleranceConfig | None = None,
                   chaos=None, **run_label) -> WorkloadReport:
    """One open-loop workload on a fresh grid of ``spec`` at ``seed``,
    reported to the sink under ``run_label``."""
    grid = DemoGrid(dataclasses.replace(spec, seed=seed),
                    fault_tolerance=fault_tolerance, chaos=chaos)
    report = WorkloadDriver(grid.scheduler(scheduler), workload).run()
    collect_metrics(grid, workload=True, **run_label)
    return report


def stats_cell(query_key: str, **run) -> QueryStatistics:
    """Sweep cell: one :func:`execute` run, reduced to its statistics
    (the rows stay in the worker)."""
    return execute(query_key, **run).stats


def query_cell(label: str, query_key: str = "Q1", **run) -> SweepCell:
    """The sweep cell of one :func:`execute` run.

    A baseline is no special cell: it is the ``query_cell`` of the
    unperturbed, non-adaptive run of the same query and spec.
    """
    return SweepCell(label, stats_cell, {"query_key": query_key, **run})


@dataclasses.dataclass(frozen=True)
class Stat:
    """A report entry: ``field`` of ``cell``'s value (the
    :class:`QueryStatistics` of a :func:`query_cell`), divided by the
    same field of ``per``'s when ``per`` is set."""

    cell: SweepCell
    per: SweepCell | None = None
    field: str = "response_time_ms"


def run_table(rows: typing.Sequence[typing.Sequence],
              jobs: int = 1) -> list[list]:
    """Fill declared report rows from one sweep.

    Each distinct cell label a :class:`Stat` names runs once, in order
    of first appearance (an entry's ``per`` before its ``cell``),
    through :class:`SweepRunner`.  Every ``Stat`` is then replaced by
    its value; other entries are kept as they are.  A label declared
    with two different runs raises :class:`ValueError`.
    """
    cells: dict[str, SweepCell] = {}
    for entry in itertools.chain.from_iterable(rows):
        if not isinstance(entry, Stat):
            continue
        for cell in filter(None, (entry.per, entry.cell)):
            known = cells.setdefault(cell.label, cell)
            if ((known.fn, repr(known.kwargs))
                    != (cell.fn, repr(cell.kwargs))):
                raise ValueError(
                    f"cell {cell.label!r} declared as {known.kwargs!r} "
                    f"and as {cell.kwargs!r}")
    stats = dict(zip(cells, SweepRunner(jobs).run(list(cells.values()))))

    def fill(entry):
        if not isinstance(entry, Stat):
            return entry
        value = getattr(stats[entry.cell.label], entry.field)
        if entry.per is None:
            return value
        return value / getattr(stats[entry.per.label], entry.field)

    return [[fill(entry) for entry in row] for row in rows]


@dataclasses.dataclass
class ExperimentReport:
    """Output of one experiment: rows to print and compare."""

    experiment_id: str
    title: str
    columns: list
    rows: list
    notes: str = ""

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]
