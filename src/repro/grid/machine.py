"""Simulated Grid machine.

A machine bundles a FIFO CPU, a relative speed factor, and a set of
:class:`~repro.grid.perturbation.Perturbation` models.  Query operators
price labelled work through :meth:`Machine.effect_batch`, which applies
matching perturbations (cost inflation and/or thread-blocking sleeps)
and queues nothing: an operator chain owes the effect on its fragment's
ledger, control paths pay it at once through :meth:`Machine.work`.

Machines also carry the capacity-share ledger of the multi-query
scheduler (:mod:`repro.sched`): each admitted session charges shares
on the machines its subplans occupy.  The shares do not alter CPU
costs — contention between co-resident sessions emerges from the
FIFO CPU server itself, whose queueing delays every resident morsel
burst in proportion to competing demand (so each query's measured M1
costs rise and its Diagnoser rebalances through the paper's
unchanged adaptivity loop, while an admitted-but-idle neighbour
slows nobody).  The ledger is the scheduler's residency record: it
drives load-aware placement of new sessions and the capacity
pressure reported by :meth:`Machine.contention_factor`.
"""

from __future__ import annotations

import random
import typing

from repro.grid.perturbation import Perturbation, WorkEffect
from repro.net.availability import Availability
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.resources import Cpu, SpeedFunction

#: Memoized repeated float addition: ``(work, count) -> work summed
#: count times``.  Batch work charges sum per-item work by repeated
#: addition so the total is bit-identical to ``count`` sequential
#: per-item charges; the cost-model emits a handful of distinct work
#: constants and counts are bounded by the batch size, so the table
#: stays tiny and the hot path becomes a dict hit.
_REPEATED_ADD: dict[tuple[float, int], float] = {}


def _repeated_add(work: float, count: int) -> float:
    if count == 1:
        return work  # control-path charges stay out of the table
    key = (work, count)
    total = _REPEATED_ADD.get(key)
    if total is None:
        total = 0.0
        for _ in range(count):
            total += work
        _REPEATED_ADD[key] = total
    return total


class Machine:
    """A named computational resource on the simulated Grid."""

    def __init__(self, env: Environment, name: str,
                 speed: float | SpeedFunction = 1.0,
                 rng: random.Random | None = None,
                 capacity: float = 1.0,
                 metrics=None,
                 availability: Availability | None = None) -> None:
        self.env = env
        self.name = name
        #: When it is frozen or down (decision 41), for wire and CPU.
        self.availability = availability or Availability()
        self.cpu = Cpu(env, speed=speed, thaw=self.availability.thaw)
        self.perturbations: list[Perturbation] = []
        self._rng = rng or random.Random(0)
        #: Session-shares this machine serves without capacity
        #: pressure; the denominator of :meth:`contention_factor`.
        self.capacity = float(capacity)
        self._shares: dict[str, float] = {}
        #: Simulated time of a permanent fail-stop; None = alive.
        self.crashed_at: float | None = None
        if metrics is not None:
            self._register_metrics(metrics)

    def _register_metrics(self, metrics) -> None:
        """Expose this machine's observables through the registry.

        Callback gauges are read only at snapshot time and the queue
        sampler is a pure in-memory append, so none of this perturbs
        the simulation (the zero-cost metrics invariant).
        """
        metrics.gauge("machine_cpu_busy_ms",
                      fn=lambda: self.cpu.busy_time, machine=self.name)
        metrics.gauge("machine_cpu_utilisation",
                      fn=self.cpu.utilisation, machine=self.name)
        metrics.gauge("machine_cpu_tasks_completed",
                      fn=lambda: self.cpu.tasks_completed,
                      machine=self.name)
        metrics.gauge("machine_contention_factor",
                      fn=self.contention_factor, machine=self.name)
        self.cpu.queue_sampler = metrics.series(
            "machine_cpu_queue_depth", machine=self.name)

    # -- capacity shares (multi-query fair sharing) ---------------------

    def acquire_share(self, owner: str, weight: float = 1.0) -> None:
        """Charge ``weight`` capacity shares on behalf of ``owner``."""
        if weight <= 0:
            raise ValueError(f"share weight must be positive: {weight}")
        self._shares[owner] = self._shares.get(owner, 0.0) + weight

    def release_share(self, owner: str) -> None:
        """Release every share held by ``owner`` (idempotent)."""
        self._shares.pop(owner, None)

    @property
    def committed_shares(self) -> float:
        """Total shares currently charged by resident sessions."""
        return sum(self._shares.values())

    def contention_factor(self) -> float:
        """Capacity pressure from resident sessions (an observable).

        1.0 while committed shares fit the capacity, and
        ``shares / capacity`` beyond it — the slowdown a session
        should *expect* here if every resident neighbour keeps the
        FIFO CPU busy.  Reported through scheduler telemetry and used
        for load-aware placement; it is deliberately **not** charged
        to CPU bursts, because the shared FIFO server already makes
        co-resident sessions queue behind each other (multiplying
        work on top would double-count the interference and penalise
        sessions for idle neighbours).
        """
        if not self._shares:
            return 1.0
        load = sum(self._shares.values())
        if load <= self.capacity:
            return 1.0
        return load / self.capacity

    # -- transient stalls (chaos injection) -----------------------------

    @property
    def is_frozen(self) -> bool:
        return self.availability.thaw(self.env.now) > self.env.now

    def freeze(self, duration_ms: float) -> float:
        """Stall this machine for ``duration_ms`` from now.

        The CPU serves no new burst and the hosted services neither
        dispatch incoming messages nor transmit outgoing ones until the
        stall ends; all of it is retained and drains at thaw.  Unlike
        :meth:`~repro.grid.container.GridContext.fail_machine` nothing
        is lost — the machine comes back.  Returns the thaw time.
        """
        self.availability.freeze(self.env.now, duration_ms)
        return self.availability.thaw(self.env.now)

    # -- permanent crashes (fault tolerance) ----------------------------

    @property
    def is_crashed(self) -> bool:
        return self.crashed_at is not None

    def crash(self) -> None:
        """Fail-stop this machine forever (idempotent).

        The CPU gate closes permanently — queued and future work never
        serves — and placement layers (optimizer candidates, scheduler
        machine order, recovery replacement picks) must skip the
        machine from now on.  Service-level teardown (endpoint
        deactivation, fragment halts) is the caller's job; see
        :meth:`repro.grid.container.GridContext.crash_machine`.
        """
        if self.crashed_at is None:
            self.crashed_at = self.env.now
            self.cpu.close()

    def add_perturbation(self, perturbation: Perturbation) -> None:
        """Attach a perturbation model to this machine."""
        self.perturbations.append(perturbation)

    def effect_batch(self, label: str, work_per_item: float,
                     count: int = 1) -> tuple[float, float]:
        """Perturbed ``(cpu_work, blocking_delay)`` of ``count`` items.

        The one place perturbations are applied; nothing is queued.
        Effects are evaluated once per item (stochastic cost factors
        draw from the RNG exactly ``count`` times, sleep injections
        block once per item).  The matching-perturbation set is hoisted
        out of the item loop: nothing here yields, so ``env.now`` — the
        only input to ``matches`` besides the label — cannot change
        mid-batch; it is built only when something matches (most
        charges land where nothing is active for their label).  With no
        match the per-item accumulation degenerates to repeated
        addition of ``work_per_item``; the repeated add is kept (rather
        than one multiply) so the summed float is bit-identical to the
        per-item effect loop, and memoized per ``(work, count)`` since
        the result is a pure function of both.
        """
        if count <= 0:
            return 0.0, 0.0
        active = None
        if self.perturbations:
            now = self.env._now
            for perturbation in self.perturbations:
                if perturbation.matches(label, now):
                    active = (active or []) + [perturbation]
        if active is None:
            return _repeated_add(work_per_item, count), 0.0
        if all(perturbation.deterministic for perturbation in active):
            # Every item's effect is identical and no RNG is drawn, so
            # one apply plus the memoized repeated add matches the
            # per-item loop bit-for-bit.
            effect = WorkEffect(cpu_work=work_per_item)
            for perturbation in active:
                effect = perturbation.apply(effect, self._rng)
            return (_repeated_add(effect.cpu_work, count),
                    _repeated_add(effect.blocking_delay, count))
        total_cpu = 0.0
        total_delay = 0.0
        rng = self._rng
        for _ in range(count):
            effect = WorkEffect(cpu_work=work_per_item)
            for perturbation in active:
                effect = perturbation.apply(effect, rng)
            total_cpu += effect.cpu_work
            total_delay += effect.blocking_delay
        return total_cpu, total_delay

    def work(self, label: str, work: float
             ) -> typing.Generator[Event, typing.Any, float]:
        """Execute labelled work now; returns the elapsed time.

        Usage inside a process: ``elapsed = yield from machine.work(...)``.
        Blocking delays (sleep injections) occur before the CPU burst,
        mirroring the paper's "sleep() call before the processing of
        each tuple".  For control paths: an operator chain charges
        its fragment's ledger (``EvalContext.charge``) instead.
        """
        started = self.env.now
        cpu_work, delay = self.effect_batch(label, work)
        if delay > 0:
            yield self.env.timeout(delay)
        if cpu_work > 0:
            yield self.cpu.execute(cpu_work, label=label)
        return self.env.now - started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.name!r}>"
