"""Table scan over a Grid Data Service."""

from __future__ import annotations

import typing

from repro.engine.operators.base import END, EvalContext, Operator
from repro.services.gds import GridDataService


class TableScan(Operator):
    """Sequential scan of a co-located Grid Data Service.

    Each tuple fetch pays the table's OGSA-DAI wrapper cost
    (``gds.access_work_per_tuple``, plus the cost model's generic
    ``scan_work_per_tuple``) on the data host's CPU under the label
    ``scan:<table>``, so scans themselves can be perturbed.
    """

    def __init__(self, ctx: EvalContext, gds: GridDataService) -> None:
        super().__init__(ctx)
        self.gds = gds
        self.table_name = gds.relation.name
        self._cursor = 0

    @property
    def work_label(self) -> str:
        return f"scan:{self.table_name}"

    def open(self) -> typing.Generator:
        self._cursor = 0
        return
        yield  # pragma: no cover - generator form

    def next_batch(self, max_rows: int) -> typing.Generator:
        # Batches are born here as slices of the relation's column
        # store.
        batch = self.gds.read_block(self._cursor, max_rows)
        count = len(batch)
        if count == 0:
            return END
        self._cursor += count
        work = (self.gds.access_work_per_tuple
                + self.ctx.cost.scan_work_per_tuple)
        self.ctx.charge(self.work_label, work, count)
        return batch
        yield  # pragma: no cover - generator form
