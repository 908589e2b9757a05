"""Grid Data Services (OGSA-DAI analog).

A :class:`GridDataService` exposes one relation on one machine.  Scan
operators deployed on that machine read the relation through the
service, paying a per-tuple wrapper cost on the host CPU — modelling
the OGSA-DAI generic wrapper the paper's scans go through.  Remote
metadata (cardinality, tuple width) is available through the
``op_metadata`` operation, which the optimizer uses when planning.
"""

from __future__ import annotations

import typing

from repro.data.relation import Relation
from repro.grid.container import GridContext
from repro.grid.registry import TableMetadata
from repro.services.base import GridService


class GridDataService(GridService):
    """Exposes one relation as a Grid Data Service."""

    def __init__(self, context: GridContext, machine_name: str,
                 relation: Relation,
                 access_work_per_tuple: float = 1.0) -> None:
        super().__init__(context, f"gds:{relation.name}", machine_name)
        self.relation = relation
        self.access_work_per_tuple = access_work_per_tuple
        context.registry.add_table(TableMetadata(
            table_name=relation.name,
            gds_endpoint=self.name,
            machine_name=machine_name,
            cardinality=relation.cardinality,
            tuple_bytes=relation.tuple_bytes,
        ))

    def op_metadata(self, payload: typing.Any, sender: str
                    ) -> typing.Generator:
        """Service operation returning catalog metadata."""
        return {
            "table": self.relation.name,
            "cardinality": self.relation.cardinality,
            "tuple_bytes": self.relation.tuple_bytes,
            "columns": self.relation.schema.names(),
        }
        yield  # pragma: no cover - generator form required by dispatcher

    def read_block(self, start: int, count: int):
        """Local rows ``[start, start+count)`` as a columnar batch (used
        by co-located scans)."""
        return self.relation.read_block(start, count)
