"""Contract: a tuple is a ``Row`` only once a caller reads the result.

A :class:`~repro.data.batch.Batch` is columns only (DESIGN decision
47), so no engine path — routing, state channels, recovery logs and
their replays, the hash join, the operation call under chaos, the
aggregator — builds a ``Row``.  Each run below counts calls through
``Row.__init__`` from before the grid is built: none until
``QueryResult.rows`` is read, then exactly one per result row.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.config import AdaptivityConfig, EngineConfig
from repro.data.tuples import Row
from repro.engine.redistribution import Redistribution
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24, spare_machines=1)
GROUP_BY = ("select i.ORF1, count(*) from protein_interactions i "
            "group by i.ORF1")


@pytest.fixture
def row_inits(monkeypatch):
    """Counts every ``Row`` built while the fixture is active."""
    built = [0]
    init = Row.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Row, "__init__", counting)
    return built


@pytest.fixture
def state_copies(monkeypatch):
    """Counts the tuples state channels copy to a bucket's new owner."""
    copied = [0]
    original = Redistribution.state_copies

    def counting(self, retained, moved):
        copies = original(self, retained, moved)
        copied[0] += sum(len(block) for block in copies.values())
        return copies

    monkeypatch.setattr(Redistribution, "state_copies", counting)
    return copied


def run(query, adaptivity, chaos=None, perturb=None):
    grid = DemoGrid(SPEC, engine_config=EngineConfig(batch_size=32),
                    chaos=chaos)
    if perturb is not None:
        perturb(grid)
    return grid, grid.run(query, adaptivity)


def assert_rows_only_when_read(row_inits, result):
    assert result.stats.result_count > 0
    assert row_inits[0] == 0
    rows = result.rows
    assert len(rows) == result.stats.result_count
    assert row_inits[0] == result.stats.result_count


def test_static_q1(row_inits):
    _grid, result = run(Q1, AdaptivityConfig.disabled())
    assert_rows_only_when_read(row_inits, result)


def test_q2_under_a1_r1_with_a_state_move(row_inits, state_copies):
    _grid, result = run(
        Q2, AdaptivityConfig(assessment="A1", response="R1",
                             decision_latency_ms=100.0),
        perturb=lambda grid: perturb_join_sleep(grid, 12.0))
    assert result.stats.adaptations_accepted >= 1
    assert state_copies[0] > 0
    assert_rows_only_when_read(row_inits, result)


def test_q1_under_a2_r1_with_a_retrospective_move(row_inits):
    _grid, result = run(
        Q1, AdaptivityConfig(assessment="A2", response="R1",
                             decision_latency_ms=100.0),
        perturb=lambda grid: perturb_ws_cost(grid, 10.0))
    assert result.stats.retrospective_moves >= 1
    assert result.stats.tuples_moved > 0
    assert_rows_only_when_read(row_inits, result)


def test_q1_under_chaos_with_ws_retries(row_inits):
    grid, result = run(Q1, AdaptivityConfig.disabled(),
                       chaos=ChaosConfig.lossy(ws_failure_probability=0.2))
    assert grid.chaos.counters()["ws_retries"] > 0
    assert_rows_only_when_read(row_inits, result)


def test_group_by(row_inits):
    _grid, result = run(GROUP_BY, AdaptivityConfig.disabled())
    assert_rows_only_when_read(row_inits, result)
