"""Operator protocol for the batch-granular iterator-model engine.

OGSA-DQP "adopts the iterator pipelining model of execution" [13]:
each subplan is driven by one evaluator thread pulling down an
operator chain.  In the simulation an operator's ``open``/
``next_batch``/``close`` are *generators* so they can wait on
simulated time (CPU bursts, queue waits, network sends); callers use
``batch = yield from op.next_batch(n)``.

``next_batch`` is the one pull method: it returns a non-empty
:class:`~repro.data.batch.Batch` of up to ``max_rows`` rows, or the
:data:`END` sentinel.  ``max_rows=1`` (``EngineConfig.batch_size=1``,
or a producer one row short of a flush boundary) is a one-row morsel
through the same code.

One thread does everything that happens to a morsel, so a morsel is
one stretch of CPU: operators queue no CPU work, they *charge* their
per-tuple costs to the fragment's ledger (:meth:`EvalContext.charge`,
a plain call) and the evaluator pays the sum as one CPU task
(:meth:`EvalContext.settle`).  A fragment settles before it waits for
anything but its own payment, before anything leaves it (a buffer, an
acknowledgement) and once per morsel pulled from a leaf, so the ledger
is zero whenever the fragment is suspended anywhere but in ``settle``.

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
    #: The charge ledger: perturbed CPU work and blocking delay charged
    #: by the operators and not yet paid by the evaluator.
    owed_work: float = 0.0
    owed_delay: float = 0.0

    @property
    def env(self):
        return self.grid.env

    def charge(self, label: str, work_per_item: float,
               count: int = 1) -> None:
        """Owe ``count`` items of labelled work; perturbations (and
        their RNG draws) are applied now, nothing is queued."""
        work, delay = self.machine.effect_batch(label, work_per_item, count)
        self.owed_work += work
        self.owed_delay += delay

    def settle(self) -> typing.Generator:
        """Pay what is owed: the blocking delay, then one CPU task.
        Zeroed before the first yield: a second process sharing this
        context (a distribution update's replay) starts owing nothing."""
        work, delay = self.owed_work, self.owed_delay
        self.owed_work = self.owed_delay = 0.0
        if delay > 0:
            yield self.env.timeout(delay)
        if work > 0:
            yield self.machine.cpu.execute(work, label="morsel")

    def pay_handover(self, count: int) -> typing.Generator:
        """Pay for ``count`` raw events just handed to the detector:
        emission work plus the detector's (unperturbed) intake, as one
        task.  Paid *after* the hand-over, so the notifications it
        triggers queue for the CPU ahead of the next morsel."""
        self.charge("monitor", self.cost.monitor_event_work, count)
        self.owed_work += self.monitor.intake_work(count)
        yield from self.settle()


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
