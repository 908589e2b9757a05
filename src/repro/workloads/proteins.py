"""The demo deployment: the paper's three-machine testbed in simulation.

"Two machines are used for the evaluation of EntropyAnalyser in Q1,
and the join in Q2 ... The data are retrieved from a third machine.
All machines run RedHat Linux 9, are connected by a 100Mbps network,
and are autonomously exposed as Grid resources" (§3.2).

:class:`DemoGrid` builds that world: a data host exposing the two
protein tables as Grid Data Services, N homogeneous compute machines
offering the EntropyAnalyser operation, and a coordinator running the
GDQS.  Cost constants live in :mod:`repro.workloads.scenarios`.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import (
    CostModel,
    EngineConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.data.generator import (
    INTERACTIONS_CARDINALITY,
    SEQUENCES_CARDINALITY,
    SEQUENCE_LENGTH,
    generate_protein_interactions,
    generate_protein_sequences,
)
from repro.dqp.client import QueryProcessor
from repro.grid.container import GridContext
from repro.grid.perturbation import Perturbation
from repro.net.network import NetworkConfig
from repro.net.serialization import SerializationModel
from repro.services.gds import GridDataService
from repro.services.ws import make_entropy_analyser
from repro.sim.rand import RandomStreams

#: Machine names of the demo deployment.
COORDINATOR = "coordinator"
DATA_HOST = "data-host"


def compute_machine_name(index: int) -> str:
    return f"compute-{index + 1}"


@functools.lru_cache(maxsize=8)
def _demo_relations(seed: int, sequences: int, interactions: int,
                    length: int):
    """The (sequences, interactions) tables of a grid, cached.

    The tables are a pure function of these four spec fields and are
    read-only once built (scans read column blocks through
    ``Relation.read_block``), so identical grids in one process share
    one copy.  :class:`~repro.sim.rand.RandomStreams` derives each named
    stream from the seed and the name alone, so this is the grid's own
    "protein-data" stream, which nothing else consumes.
    """
    rng = RandomStreams(seed).stream("protein-data")
    sequence_table = generate_protein_sequences(rng, sequences, length)
    return sequence_table, generate_protein_interactions(
        rng, sequence_table, interactions)


@dataclasses.dataclass(frozen=True)
class DemoGridSpec:
    """Shape of the demo deployment."""

    compute_machines: int = 2
    sequences_cardinality: int = SEQUENCES_CARDINALITY
    interactions_cardinality: int = INTERACTIONS_CARDINALITY
    sequence_length: int = SEQUENCE_LENGTH
    seed: int = 0
    #: Per-tuple GDS wrapper costs (OGSA-DAI access path).
    sequences_access_work: float = 6.1
    interactions_access_work: float = 0.8
    ws_base_work_ms: float = 4.6
    #: Standby machines available to failure recovery.
    spare_machines: int = 0
    #: Compute-machine sites for the two-tier scheduler topology.
    #: ``1`` keeps the legacy flat registration (machines land in the
    #: registry's implicit default site); ``k > 1`` splits the compute
    #: pool into k contiguous blocks named ``site-1`` .. ``site-k``.
    sites: int = 1
    #: Register compute machines as lazy specs: a machine is built on
    #: first placement (or fault injection) rather than at grid
    #: construction, so a 1,000-machine fleet costs nothing until
    #: queries actually land on it.  Machine RNG streams are derived
    #: by name, so materialization order cannot change behaviour.
    lazy_machines: bool = False

    def __post_init__(self) -> None:
        for field, least in (("sites", 1), ("sequences_cardinality", 1),
                             ("interactions_cardinality", 0),
                             ("sequence_length", 1)):
            value = getattr(self, field)
            if value < least:
                raise ValueError(f"{field} must be >= {least}: {value}")


class DemoGrid:
    """A fully wired simulated Grid hosting the protein demo database."""

    def __init__(self, spec: DemoGridSpec | None = None,
                 engine_config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 network_config: NetworkConfig | None = None,
                 serialization: SerializationModel | None = None,
                 fault_tolerance: FaultToleranceConfig | None = None,
                 metrics_enabled: bool = True,
                 chaos=None) -> None:
        self.spec = spec or DemoGridSpec()
        self.engine_config = engine_config or EngineConfig()
        self.cost = cost or CostModel()
        self.context = GridContext(
            seed=self.spec.seed,
            network_config=network_config,
            serialization=serialization or SerializationModel(),
            metrics_enabled=metrics_enabled)
        self.context.add_machine(COORDINATOR, compute=False)
        self.context.add_machine(DATA_HOST, compute=False)
        self.compute_machines = [
            compute_machine_name(i)
            for i in range(self.spec.compute_machines)]
        per_site = -(-self.spec.compute_machines // self.spec.sites)
        for i, name in enumerate(self.compute_machines):
            site = (f"site-{i // per_site + 1}"
                    if self.spec.sites > 1 else None)
            self.context.add_machine(name, site=site,
                                     lazy=self.spec.lazy_machines)
        self.spare_machines = [f"spare-{i + 1}"
                               for i in range(self.spec.spare_machines)]
        for name in self.spare_machines:
            self.context.add_machine(name, compute=False, spare=True)

        sequences, interactions = _demo_relations(
            self.spec.seed, self.spec.sequences_cardinality,
            self.spec.interactions_cardinality, self.spec.sequence_length)
        self.gds_map = {
            "protein_sequences": GridDataService(
                self.context, DATA_HOST, sequences,
                access_work_per_tuple=self.spec.sequences_access_work),
            "protein_interactions": GridDataService(
                self.context, DATA_HOST, interactions,
                access_work_per_tuple=self.spec.interactions_access_work),
        }
        entropy = make_entropy_analyser(self.spec.ws_base_work_ms)
        entropy.register(self.context.registry, self.compute_machines)
        self.operations = {entropy.name: entropy}

        self.processor = QueryProcessor(
            self.context, self.gds_map, self.operations, COORDINATOR,
            engine_config=self.engine_config, cost=self.cost,
            fault_tolerance=fault_tolerance)
        # Installed last so fault draws never perturb the data/
        # placement streams above (a disabled config installs nothing).
        self.context.install_chaos(chaos)

    @property
    def chaos(self):
        """The installed chaos injector, or None."""
        return self.context.chaos

    def perturb(self, machine_name: str,
                perturbation: Perturbation) -> None:
        """Attach a perturbation to one machine."""
        self.context.machine(machine_name).add_perturbation(perturbation)

    def fail_machine_at(self, machine_name: str, at_ms: float) -> None:
        """Schedule a crash of every service on ``machine_name``.

        The failure takes effect ``at_ms`` into the simulation: all
        services hosted there (evaluators, detectors) go down and
        their state is lost, exercising the fault-tolerance path.
        """
        self.context.fail_machine_at(machine_name, at_ms)

    def run(self, query_text: str, adaptivity=None, degree=None):
        """Run a query to completion on this grid."""
        return self.processor.run(query_text, adaptivity=adaptivity,
                                  degree=degree)

    def scheduler(self, config: SchedulerConfig | None = None):
        """A multi-query scheduler over this grid's GDQS."""
        from repro.sched import QueryScheduler

        return QueryScheduler(self.processor.gdqs, config)
