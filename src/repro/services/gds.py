"""Grid Data Services (OGSA-DAI analog).

A :class:`GridDataService` exposes one relation on one machine.  Scan
operators deployed on that machine read the relation through the
service, paying a per-tuple wrapper cost on the host CPU — modelling
the OGSA-DAI generic wrapper the paper's scans go through.  The
table's metadata (cardinality, tuple width) goes into the registry's
catalog, which the optimizer reads when planning.
"""

from __future__ import annotations

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

    def read_block(self, start: int, count: int):
        """Local rows ``[start, start+count)`` as a columnar batch (used
        by co-located scans)."""
        return self.relation.read_block(start, count)
