"""The operation_call operator: Web Services as typed foreign functions.

"Arbitrary Web Services can play the role of typed foreign functions
and be invoked from queries (with the operation call operator being
responsible for the execution)" (§2).  The call's charge carries the
operation's work label, which is what the paper's WS perturbations
(10x/20x/30x costlier) target.
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator
from repro.services.ws import WebServiceOperation


class OperationCall(UnaryOperator):
    """Invokes a WS operation per tuple, appending the result column."""

    def __init__(self, ctx: EvalContext, child: Operator,
                 operation: WebServiceOperation, arg_position: int) -> None:
        super().__init__(ctx, child)
        self.operation = operation
        self.arg_position = arg_position
        self.calls_made = 0

    def _retry_transient_failures(self, chaos) -> typing.Generator:
        """Re-attempt the call while chaos makes it fail transiently.

        Each failed attempt was already charged the operation's work
        (the request reached the service and died there); the retry
        pays it, backs off per the ``ws_retry`` policy and charges the
        work again.
        """
        attempt = 0
        while chaos.ws_call_fails(self.operation.name):
            attempt += 1
            chaos.count_retry("ws")
            backoff = chaos.retry_backoff_ms(chaos.config.ws_retry, attempt)
            if backoff > 0:
                yield from self.ctx.settle()
                yield self.env.timeout(backoff)
            self.ctx.charge(self.operation.work_label,
                            self.operation.base_work_ms)

    def next_batch(self, max_rows: int) -> typing.Generator:
        batch = yield from self.child.next_batch(max_rows)
        if batch is END:
            return END
        # Invocation plumbing plus the (perturbable) service work.
        count = len(batch)
        self.ctx.charge("opcall", self.ctx.cost.opcall_overhead_work, count)
        self.ctx.charge(self.operation.work_label,
                        self.operation.base_work_ms, count)
        # Under chaos each row's transient failures are drawn and paid
        # first, row by row in batch order; ``invoke`` is pure and takes
        # no simulated time, so invoking over the column afterwards
        # keeps the chaos draw order and every simulated time.
        chaos = self.ctx.grid.chaos
        if chaos is not None:
            for _ in range(count):
                yield from self._retry_transient_failures(chaos)
        invoke = self.operation.invoke
        results = [invoke(value) for value in batch.column(self.arg_position)]
        self.calls_made += count
        return Batch(batch.columns() + [results], batch.tids())
