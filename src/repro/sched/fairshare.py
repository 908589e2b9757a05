"""Fair sharing of machine capacity between concurrent sessions.

Each admitted session charges one capacity share on every machine
its subplans occupy (compute machines, data hosts and the coordinator
alike — a scan feed contends for the data host exactly as a WS call
contends for a compute node).  The shares are the scheduler's
residency ledger: they steer new sessions toward
the least-loaded machines (:meth:`FairShare.placement_order`) and
surface capacity pressure through
:meth:`repro.grid.machine.Machine.contention_factor`.

The contention itself needs no extra mechanism: co-resident sessions
share each machine's single FIFO CPU server, so their morsel bursts
queue behind one another and every active tenant slows the others in
proportion to its demand — while an admitted-but-idle session slows
nobody.  The consequences are deliberately left to the paper's own
machinery: a session sharing a busy machine sees its measured M1
costs rise there (CPU queueing counts as processing time, not input
wait), its MonitoringEventDetector notifies, and its Diagnoser
rebalances the workload vector away from the contended machine —
adaptivity under multi-tenancy falls out of the existing loop rather
than being re-implemented in the scheduler.

A single admitted session holds the only shares and the only CPU
demand, so it is bit-for-bit the single-tenant system.

Placement ordering is served by an incrementally-maintained
:class:`~repro.sched.fleet.FleetIndex` (least-loaded site, then
least-loaded machine within it), updated on the same admit/release
deltas that charge the shares — never recomputed by walking the
fleet.  ``tests/sched/test_fleet_index.py`` property-tests the index
against a full stable sort of the pool by committed shares.
"""

from __future__ import annotations

from repro.grid.registry import ResourceRegistry
from repro.sched.fleet import FleetIndex
from repro.sched.session import QuerySession


class FairShare:
    """Tracks sessions' capacity shares on the machines they occupy."""

    def __init__(self, registry: ResourceRegistry) -> None:
        self.registry = registry
        self.index = FleetIndex(registry)

    def admit(self, session: QuerySession) -> None:
        """Charge the session's share on every machine it occupies."""
        for name in session.machines:
            machine = self.registry.machine(name)
            machine.acquire_share(session.session_id)
            # Re-read the ledger sum rather than applying a delta, so
            # the index key has no incremental float drift.
            self.index.update(name, machine.committed_shares)

    def release(self, session: QuerySession) -> None:
        """Return the session's shares (idempotent)."""
        for name in session.machines:
            machine = self.registry.machine(name)
            machine.release_share(session.session_id)
            self.index.update(name, machine.committed_shares)

    def load(self, machine_name: str) -> float:
        """Shares currently committed on ``machine_name``."""
        return self.registry.machine(machine_name).committed_shares

    def placement_order(self, limit: int | None = None) -> list[str]:
        """Index-backed placement preference over compute machines.

        Least-loaded site first, then least-loaded machine within each
        site; crashed machines are skipped.  With a single site this
        is the crash-filtered compute pool sorted stably by committed
        shares — registration order at uniform load, so placement
        preferences are a no-op until sessions actually pile up
        somewhere (the concurrency-one equivalence tests rely on it).
        ``limit`` bounds the emitted candidates for large fleets.
        """
        return self.index.order(limit=limit)
