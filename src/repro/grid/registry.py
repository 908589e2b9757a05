"""Resource registry and metadata catalog.

OGSA-DQP's GDQS "contacts resource registries that contain the
addresses of the computational and data resources available and
updates the metadata catalog of the system" (§2).  This module is that
registry: it records which machines exist, which may evaluate query
fragments, where each table's Grid Data Service lives, and which Web
Service operations are available on which machines.

Two fleet-scale features live here:

* **Sites.**  Every machine belongs to a site (``DEFAULT_SITE`` when
  none is named).  Sites are the aggregation tier of the two-level
  monitoring/placement topology: the scheduler's fleet index keeps one
  incrementally-maintained load summary per site and one per machine
  within its site, so placement picks least-loaded-site then
  least-loaded-machine without touching the whole fleet.  A grid that
  never names a site has exactly one implicit site, which degenerates
  to the flat (pre-site) ordering bit-for-bit.

* **Lazy machines.**  ``add_machine_spec`` registers a *description*
  of a machine plus a factory; the :class:`~repro.grid.machine.Machine`
  object (CPU, RNG stream, metric gauges) is only built on first
  access — first placement, first fault injection, first direct
  lookup.  A 1,000-machine scenario therefore pays construction cost
  only for the machines queries actually touch.  Determinism is
  unaffected: machine RNGs are independent named streams
  (:meth:`repro.sim.rand.RandomStreams.stream`), so materialization
  order cannot perturb any draw.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import PlanningError
from repro.grid.machine import Machine

#: Site of every machine registered without an explicit site.
DEFAULT_SITE = "default"


@dataclasses.dataclass
class TableMetadata:
    """Catalog entry for a table exposed as a Grid Data Service."""

    table_name: str
    gds_endpoint: str
    machine_name: str
    cardinality: int
    tuple_bytes: int


@dataclasses.dataclass
class OperationMetadata:
    """Catalog entry for a Web Service operation (typed foreign function)."""

    operation_name: str
    machine_names: list[str]
    base_work_ms: float


@dataclasses.dataclass
class MachineSpec:
    """A registered-but-not-yet-built machine.

    ``factory`` is a zero-argument callable returning the
    :class:`Machine`; the registry invokes it at most once, on first
    access, and then notifies every materialization listener.
    """

    name: str
    factory: typing.Callable[[], Machine]


class ResourceRegistry:
    """Names and metadata for every resource on the simulated Grid."""

    def __init__(self) -> None:
        self._machines: dict[str, Machine] = {}
        self._specs: dict[str, MachineSpec] = {}
        self._compute_machines: list[str] = []
        self._compute_set: set[str] = set()
        self._spare_machines: list[str] = []
        self._sites: dict[str, str] = {}
        self._tables: dict[str, TableMetadata] = {}
        self._operations: dict[str, OperationMetadata] = {}
        #: Called with each Machine right after lazy materialization
        #: (eagerly-added machines never fire these: their creator
        #: already holds the object and wires it up directly).
        self._materialize_listeners: list = []

    # -- machines --------------------------------------------------------

    def _register_name(self, name: str, compute: bool, spare: bool,
                       site: str | None) -> None:
        if name in self._machines or name in self._specs:
            raise PlanningError(f"duplicate machine: {name}")
        if compute:
            self._compute_machines.append(name)
            self._compute_set.add(name)
        if spare:
            self._spare_machines.append(name)
        self._sites[name] = site or DEFAULT_SITE

    def add_machine(self, machine: Machine, compute: bool = True,
                    spare: bool = False, site: str | None = None) -> None:
        """Register ``machine``.

        ``compute`` marks it schedulable by the optimizer; ``spare``
        marks it a standby used only by failure recovery; ``site``
        names its aggregation site (``DEFAULT_SITE`` when omitted).
        """
        self._register_name(machine.name, compute, spare, site)
        self._machines[machine.name] = machine

    def add_machine_spec(self, name: str,
                         factory: typing.Callable[[], Machine],
                         compute: bool = True, spare: bool = False,
                         site: str | None = None) -> None:
        """Register a lazy machine built by ``factory`` on first access."""
        self._register_name(name, compute, spare, site)
        self._specs[name] = MachineSpec(name, factory)

    def on_materialize(self, listener) -> None:
        """Call ``listener(machine)`` after each lazy materialization."""
        self._materialize_listeners.append(listener)

    def _materialize(self, name: str) -> Machine:
        spec = self._specs.pop(name)
        machine = spec.factory()
        self._machines[name] = machine
        for listener in self._materialize_listeners:
            listener(machine)
        return machine

    def machine(self, name: str) -> Machine:
        machine = self._machines.get(name)
        if machine is not None:
            return machine
        if name in self._specs:
            return self._materialize(name)
        raise PlanningError(f"unknown machine: {name}")

    def peek(self, name: str) -> Machine | None:
        """The machine if already built, else None (no materialization).

        Raises for names the registry has never heard of, so typos
        fail loudly instead of reading as "not built yet".
        """
        machine = self._machines.get(name)
        if machine is None and name not in self._specs:
            raise PlanningError(f"unknown machine: {name}")
        return machine

    def is_materialized(self, name: str) -> bool:
        return name in self._machines

    def materialized_machines(self) -> list[Machine]:
        """Machines built so far, in registration-then-access order."""
        return list(self._machines.values())

    def compute_machines(self) -> list[str]:
        """Names of machines the optimizer may schedule fragments on."""
        return list(self._compute_machines)

    def is_compute(self, name: str) -> bool:
        return name in self._compute_set

    def spare_machines(self) -> list[str]:
        """Standby machines reserved for failure recovery."""
        return list(self._spare_machines)

    # -- sites -----------------------------------------------------------

    def site_of(self, name: str) -> str:
        try:
            return self._sites[name]
        except KeyError:
            raise PlanningError(f"unknown machine: {name}") from None

    def sites(self) -> list[str]:
        """Site names in first-registration order."""
        return list(dict.fromkeys(self._sites.values()))

    # -- tables ------------------------------------------------------------

    def add_table(self, metadata: TableMetadata) -> None:
        if metadata.table_name in self._tables:
            raise PlanningError(f"duplicate table: {metadata.table_name}")
        self._tables[metadata.table_name] = metadata

    def table(self, table_name: str) -> TableMetadata:
        try:
            return self._tables[table_name]
        except KeyError:
            raise PlanningError(f"unknown table: {table_name}") from None

    # -- operations ----------------------------------------------------------

    def add_operation(self, metadata: OperationMetadata) -> None:
        if metadata.operation_name in self._operations:
            raise PlanningError(
                f"duplicate operation: {metadata.operation_name}")
        self._operations[metadata.operation_name] = metadata

    def has_operation(self, operation_name: str) -> bool:
        return operation_name in self._operations
