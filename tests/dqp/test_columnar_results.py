"""Results leave the engine as the column blocks they arrive in.

The result sink keeps the blocks it accepts, the GDQS counts rows from
their lengths, ``QueryResult.values()`` reads their columns and
``QueryResult.rows`` builds ``Row`` objects only when first read
(DESIGN decision 46).  What a caller sees — values, rows, tids, order —
is what the per-row path gave.
"""

import collections

import pytest

from repro.chaos import ChaosConfig
from repro.config import AdaptivityConfig, EngineConfig
from repro.data.tuples import Row
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24, spare_machines=1)
STATIC = AdaptivityConfig.disabled()
#: Adapts once on this grid: 146 rows move and the sink drops 29
#: replayed duplicates.
A1R1 = AdaptivityConfig(assessment="A1", response="R1",
                        decision_latency_ms=100.0)


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


def run(query, adaptivity, chaos=None, join_sleep=None):
    grid = DemoGrid(SPEC, engine_config=EngineConfig(batch_size=32),
                    chaos=chaos)
    if join_sleep is not None:
        perturb_join_sleep(grid, join_sleep)
    return grid.run(query, adaptivity)


def assert_columnar_until_read(result):
    """Every block is column-backed and no row list exists yet; then
    ``values()`` and ``rows`` agree value for value, tid for tid."""
    assert result.blocks
    assert all(block.is_columnar for block in result.blocks)
    assert "rows" not in vars(result)
    values = result.values()
    assert len(values) == result.stats.result_count
    tids = [tid for block in result.blocks for tid in block.tids()]
    rows = result.rows
    assert "rows" in vars(result) and result.rows is rows
    assert rows == [Row(value, tid) for value, tid in zip(values, tids)]
    assert [row.values for row in rows] == values == result.values()
    assert len(set(tids)) == len(tids)


def test_static_q1_builds_no_row(row_inits):
    result = run(Q1, STATIC)
    assert row_inits[0] == 0
    assert result.stats.result_count == SPEC.sequences_cardinality
    assert_columnar_until_read(result)


def test_adaptive_q2_result_stays_columnar():
    result = run(Q2, A1R1, join_sleep=12.0)
    assert result.stats.adaptations_accepted == 1
    assert result.stats.duplicates_dropped > 0
    assert result.stats.result_count == SPEC.interactions_cardinality
    assert_columnar_until_read(result)
    static = run(Q2, STATIC)
    assert (collections.Counter(result.values())
            == collections.Counter(static.values()))


def test_a_sink_that_drops_duplicates_keeps_filtered_blocks():
    clean = run(Q1, STATIC)
    result = run(Q1, STATIC,
                 chaos=ChaosConfig.lossy(duplicate_probability=0.3))
    assert result.stats.duplicates_dropped > 0
    assert_columnar_until_read(result)
    assert (collections.Counter(result.values())
            == collections.Counter(clean.values()))
