"""Operator protocol for the batch-granular iterator-model engine.

OGSA-DQP "adopts the iterator pipelining model of execution" [13]:
each subplan is driven by one evaluator thread pulling down an
operator chain.  In the simulation an operator's ``open``/
``next_batch``/``close`` are *generators* so they can wait on
simulated time (CPU bursts, queue waits, network sends); callers use
``batch = yield from op.next_batch(n)``.

``next_batch`` is the one pull method: it returns a non-empty
:class:`~repro.data.batch.Batch` of up to ``max_rows`` rows, or the
:data:`END` sentinel.  Operators aggregate their per-tuple CPU costs
into one ``machine.work_batch`` call per batch, so the simulator
schedules events per morsel instead of per tuple.  ``max_rows=1``
(``EngineConfig.batch_size=1``, or a producer one row short of a flush
boundary) is a one-row morsel through the same code.

END is a state, not a token: after END, ``next_batch`` may be called
again — exchange consumers can "reopen" when a retrospective
repartition replays tuples to them — and all operators must tolerate
that.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import CostModel, EngineConfig
from repro.engine.metrics import SubplanMetrics
from repro.grid.container import GridContext
from repro.grid.machine import Machine


class _EndOfStream:
    """Singleton sentinel returned by ``next_batch`` when a stream ends."""

    def __repr__(self) -> str:
        return "END"


END = _EndOfStream()


@dataclasses.dataclass
class EvalContext:
    """Shared collaborators for the operators of one subplan instance."""

    grid: GridContext
    machine: Machine
    metrics: SubplanMetrics
    cost: CostModel
    engine_config: EngineConfig
    #: Local MonitoringEventDetector hook (None when monitoring is off).
    monitor: typing.Any = None

    @property
    def env(self):
        return self.grid.env


class Operator:
    """Base class for physical operators."""

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self.env = ctx.env

    def open(self) -> typing.Generator:
        """Prepare for evaluation (recursively opens children)."""
        return
        yield  # pragma: no cover - generator form

    def next_batch(self, max_rows: int) -> typing.Generator:
        """Produce a non-empty batch of up to ``max_rows`` rows, or END.

        A partial batch is returned when rows precede END; the next
        call re-derives END from the operator's state.
        """
        raise NotImplementedError

    def finish(self) -> typing.Generator:
        """Root-operator hook run by the evaluator after END.

        Exchange producers flush and announce here; the sink fires its
        completion event.  Default: no-op.
        """
        return
        yield  # pragma: no cover - generator form

    def close(self) -> typing.Generator:
        """Release resources (recursively closes children)."""
        return
        yield  # pragma: no cover - generator form


class UnaryOperator(Operator):
    """An operator with a single child."""

    def __init__(self, ctx: EvalContext, child: Operator) -> None:
        super().__init__(ctx)
        self.child = child

    def open(self) -> typing.Generator:
        yield from self.child.open()

    def close(self) -> typing.Generator:
        yield from self.child.close()
