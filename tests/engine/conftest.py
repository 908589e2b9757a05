"""Shared fixtures for engine-level tests."""

import pytest

from repro.config import CostModel, EngineConfig
from repro.data import Column, Relation, Schema
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.base import END, EvalContext
from repro.grid import GridContext
from repro.services.gds import GridDataService


@pytest.fixture
def context():
    ctx = GridContext(seed=1)
    ctx.add_machine("m1")
    ctx.add_machine("m2")
    return ctx


@pytest.fixture
def eval_ctx(context):
    return EvalContext(
        grid=context,
        machine=context.machine("m1"),
        metrics=SubplanMetrics("test:0"),
        cost=CostModel(),
        engine_config=EngineConfig(),
        monitor=None)


@pytest.fixture
def small_relation():
    schema = Schema([Column("k", "str", 8), Column("v", "int")])
    return Relation.from_values(
        "small", schema, [(f"key{i}", i) for i in range(10)])


@pytest.fixture
def small_gds(context, small_relation):
    return GridDataService(context, "m1", small_relation,
                           access_work_per_tuple=2.0)


def drain(env, operator):
    """Run an operator to exhaustion the way ``Fragment.run`` does —
    settling the ledger after ``open`` and after every pull; returns
    the produced rows."""
    def pump(env):
        yield from operator.open()
        yield from operator.ctx.settle()
        rows = []
        while True:
            batch = yield from operator.next_batch(
                operator.ctx.engine_config.batch_size)
            yield from operator.ctx.settle()
            if batch is END:
                break
            rows.extend(batch.rows)
        yield from operator.close()
        return rows

    process = env.process(pump(env))
    env.run(until=process)
    return process.value
