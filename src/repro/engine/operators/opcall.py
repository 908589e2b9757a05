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

    def _retry_transient_failures(self) -> typing.Generator:
        """Re-attempt the call while chaos makes it fail transiently.

        Each failed attempt was already charged the operation's work
        (the request reached the service and died there); the retry
        pays it, backs off per the ``ws_retry`` policy and charges the
        work again.
        """
        chaos = self.ctx.grid.chaos
        if chaos is None:
            return
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
        if self.ctx.grid.chaos is None:
            # Vectorized result column: invoke over the argument column
            # and append the results as a new column; tids carry over
            # unchanged (replace_values inherits provenance).  Gated on
            # no chaos so the per-row retry generator — and with it the
            # chaos RNG draw order — is untouched whenever failures are
            # possible (_retry_transient_failures returns immediately
            # without drawing when chaos is None).
            invoke = self.operation.invoke
            results = [invoke(value)
                       for value in batch.column(self.arg_position)]
            self.calls_made += count
            return Batch.from_columns(batch.columns() + [results],
                                      batch.tids())
        out = []
        for row in batch:
            yield from self._retry_transient_failures()
            result = self.operation.invoke(row.values[self.arg_position])
            self.calls_made += 1
            out.append(row.replace_values(row.values + (result,)))
        return batch.replace_rows(out)
