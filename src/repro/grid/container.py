"""The Grid context: one object bundling the simulated world.

A :class:`GridContext` owns the simulation environment, the network
fabric, the resource registry, the serialization cost model and the
named random streams.  Every service and operator receives the context
instead of five separate collaborators, which keeps construction
signatures short and the wiring explicit.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.grid.machine import Machine
from repro.grid.registry import ResourceRegistry
from repro.net.availability import Availability
from repro.net.network import Network, NetworkConfig
from repro.net.serialization import SerializationModel
from repro.sim.environment import Environment
from repro.sim.rand import RandomStreams
from repro.sim.resources import SpeedFunction
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer


class GridContext:
    """The fully-wired simulated Grid."""

    def __init__(self, seed: int = 0,
                 network_config: NetworkConfig | None = None,
                 serialization: SerializationModel | None = None,
                 metrics_enabled: bool = True) -> None:
        self.env = Environment()
        self.random = RandomStreams(seed)
        self.network = Network(self.env, network_config)
        self.registry = ResourceRegistry()
        self.serialization = serialization or SerializationModel()
        self.tracer = Tracer(self.env)
        self.metrics = MetricsRegistry(self.env, enabled=metrics_enabled)
        #: Live services by name, in creation order; a retired one
        #: leaves (see ``GridService.retire``).
        self._services: dict = {}
        #: Installed fault injector; None leaves every chaos hook on
        #: its zero-cost fast path (no events, no draws, no streams).
        self.chaos = None
        #: Machine name -> when it is frozen or down (decision 41).
        self.availability: dict[str, Availability] = {}

    def availability_of(self, machine_name: str) -> Availability:
        """``machine_name``'s table (a lazy machine's, unbuilt)."""
        return self.availability.setdefault(machine_name, Availability())

    def install_chaos(self, config) -> None:
        """Install (or clear) the chaos injector for this grid.

        A ``None``, disabled, or empty-schedule
        :class:`~repro.chaos.config.ChaosConfig` installs nothing,
        preserving the bit-identical baseline timeline: chaos with no
        faults to inject must not exist as far as the simulation can
        tell.  An installed schedule's freezes and crashes are already
        queued and in the availability tables, so nothing may replace
        it: that raises :class:`~repro.errors.ConfigurationError`.
        """
        if self.chaos is not None:
            installed = self.chaos.config.schedule
            if installed.freezes or installed.crashes:
                raise ConfigurationError(
                    "installed chaos has scheduled freezes or crashes; "
                    "they cannot be withdrawn")
        if (config is None or not config.enabled
                or config.schedule.is_empty):
            self.chaos = None
            self.network.chaos = None
            return
        from repro.chaos.injector import ChaosInjector
        self.chaos = ChaosInjector(config, self)
        self.network.chaos = self.chaos
        self.chaos.start()

    def call_retry_policy(self):
        """The control-plane retry policy, when chaos is installed."""
        if self.chaos is None:
            return None
        return self.chaos.config.call_retry

    def track_service(self, service) -> None:
        """Record a service for machine-level failure injection."""
        self._services[service.name] = service

    def untrack_service(self, service) -> None:
        """Forget a retired service: a later crash cannot touch it."""
        self._services.pop(service.name, None)

    def services_on(self, machine_name: str) -> list:
        """All live services hosted on ``machine_name``."""
        return [service for service in self._services.values()
                if service.machine.name == machine_name
                and not service.crashed]

    def fail_machine(self, machine_name: str,
                     description: str = "machine failed") -> list:
        """Crash every service on ``machine_name`` now; returns them."""
        self.availability_of(machine_name).fail(self.env.now)
        victims = self.services_on(machine_name)
        for service in victims:
            service.crash()
        self.tracer.record("failure", machine_name, description,
                           services_lost=len(victims))
        return victims

    def fail_machine_at(self, machine_name: str, at_ms: float) -> None:
        """Schedule :meth:`fail_machine` ``at_ms`` into the simulation."""
        self.availability_of(machine_name).fail(at_ms)
        failure = self.env.event().succeed(at=max(at_ms, self.env.now))
        failure.callbacks.append(lambda _: self.fail_machine(machine_name))

    def crash_machine(self, machine_name: str) -> list:
        """Permanently fail-stop ``machine_name``; returns lost services.

        Beyond :meth:`fail_machine` (which only kills the *services*,
        leaving the host available for replacement deployments), this
        also crashes the machine itself: the CPU gate closes forever
        and every placement layer excludes it from now on — heartbeats
        never resume, so the GDQS declares it dead rather than suspect.
        """
        self.registry.machine(machine_name).crash()
        return self.fail_machine(machine_name, "machine crashed")

    def add_machine(self, name: str, speed: float | SpeedFunction = 1.0,
                    compute: bool = True, spare: bool = False,
                    site: str | None = None,
                    lazy: bool = False) -> Machine | None:
        """Create and register a machine in one step.

        With ``lazy`` the machine is registered as a spec and only
        built on first access (placement, fault injection, direct
        lookup) — a fleet of mostly-idle machines costs nothing at
        startup.  Laziness is invisible to determinism: the machine's
        RNG is the named stream ``machine:{name}``, derived purely
        from the master seed, so *when* the machine is built cannot
        change any draw.  Returns the machine, or None when lazy.
        """
        def build() -> Machine:
            return Machine(self.env, name, speed=speed,
                           rng=self.random.stream(f"machine:{name}"),
                           metrics=self.metrics,
                           availability=self.availability_of(name))

        if lazy:
            self.registry.add_machine_spec(name, build, compute=compute,
                                           spare=spare, site=site)
            return None
        machine = build()
        self.registry.add_machine(machine, compute=compute, spare=spare,
                                  site=site)
        return machine

    def machine(self, name: str) -> Machine:
        return self.registry.machine(name)
