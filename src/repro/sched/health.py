"""Machine-health circuit breaker for multi-query placement.

Tracks per-machine query failures and opens a breaker after
``threshold`` failures inside a sliding ``window_ms``.  Placement
steers away from open machines (they sort last in the scheduler's
machine-order preference); after ``cooldown_ms`` the breaker
half-opens and admits a single probe query — a probe success closes
the breaker, a probe failure re-opens it for another cooldown.

The breaker is deliberately *advisory*: it reorders the least-loaded
placement preference rather than hard-excluding machines, so a pool
where every machine has tripped still schedules work (degraded but
live beats idle).  All bookkeeping is plain dictionary state — no
simulator events are ever scheduled, so an always-on breaker is free
when no failures occur and the no-chaos timeline stays bit-identical.

Placement steering is O(1) over the fleet in the healthy case: the
*unhealthy set* — machines whose breakers are open or cooling toward
half-open — is maintained incrementally on the record-failure /
record-success transitions instead of being recomputed by walking
every machine per placement.  ``is_open`` remains time-dependent
(cooldowns elapse without an event), so the set is a conservative
superset of the currently-open machines; callers consult it first
and only evaluate ``is_open`` for its members.
"""

from __future__ import annotations

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Failures inside the window that open a machine's breaker.
BREAKER_THRESHOLD = 3
#: Sliding window over which failures accumulate toward the threshold.
BREAKER_WINDOW_MS = 30000.0
#: Time an open breaker waits before half-opening one probe.
BREAKER_COOLDOWN_MS = 60000.0


class MachineHealth:
    """Sliding-window failure counter with open/half-open/closed states."""

    def __init__(self, env, threshold: int = BREAKER_THRESHOLD,
                 window_ms: float = BREAKER_WINDOW_MS,
                 cooldown_ms: float = BREAKER_COOLDOWN_MS) -> None:
        self.env = env
        self.threshold = threshold
        self.window_ms = window_ms
        self.cooldown_ms = cooldown_ms
        #: Recent failure timestamps per machine (pruned to the window).
        self._failures: dict[str, list[float]] = {}
        #: When each open breaker tripped (or re-tripped).
        self._opened_at: dict[str, float] = {}
        #: Probe queries placed on a half-open machine.
        self._probes: dict[str, int] = {}
        #: Machines with a tripped (open or cooling) breaker — kept in
        #: lockstep with ``_opened_at`` on every transition, so the
        #: no-failure placement path checks one empty set instead of
        #: calling ``is_open`` per machine.  Superset of currently-open
        #: (a cooldown may have elapsed); members are re-graded with
        #: ``is_open`` at use.
        self._unhealthy: set[str] = set()
        self.breakers_opened = 0
        self.breakers_closed = 0

    # -- state queries ---------------------------------------------------

    def state(self, machine: str) -> str:
        opened = self._opened_at.get(machine)
        if opened is None:
            return STATE_CLOSED
        if self.env.now - opened >= self.cooldown_ms:
            return STATE_HALF_OPEN
        return STATE_OPEN

    def is_open(self, machine: str) -> bool:
        """True when placement should steer away from ``machine``.

        A half-open machine admits exactly one probe: it reads as
        healthy until a probe is placed, then open again until the
        probe settles.
        """
        state = self.state(machine)
        if state == STATE_CLOSED:
            return False
        if state == STATE_OPEN:
            return True
        return self._probes.get(machine, 0) > 0

    def unhealthy_names(self) -> frozenset[str]:
        """Machines whose breaker is open *or* cooling (a superset of
        the currently-open set — see the module docstring).  Empty in
        the no-failure steady state, making steering free."""
        return frozenset(self._unhealthy)

    def site_rollup(self, site_of) -> dict[str, int]:
        """Open-breaker count per site (``site_of``: name -> site).

        Iterates only the unhealthy set, so the rollup is O(tripped),
        not O(fleet) — the site-tier health summary of the two-level
        monitoring topology.
        """
        rollup: dict[str, int] = {}
        for name in self._unhealthy:
            if self.is_open(name):
                site = site_of(name)
                rollup[site] = rollup.get(site, 0) + 1
        return rollup

    # -- event recording -------------------------------------------------

    def note_placement(self, machines) -> None:
        """Record that a query was placed on ``machines``.

        Half-open machines count the placement as their probe.  With
        no breakers tripped this is a single set check regardless of
        placement width.
        """
        if not self._unhealthy:
            return
        for name in machines:
            if (name in self._unhealthy
                    and self.state(name) == STATE_HALF_OPEN):
                self._probes[name] = self._probes.get(name, 0) + 1

    def record_failure(self, machine: str) -> None:
        now = self.env.now
        if machine in self._opened_at:
            # Open or half-open: the failure (a probe, or a straggler
            # from before the trip) restarts the cooldown.
            self._opened_at[machine] = now
            self._probes.pop(machine, None)
            return
        window = [stamp for stamp in self._failures.get(machine, ())
                  if now - stamp < self.window_ms]
        window.append(now)
        if len(window) >= self.threshold:
            self._failures.pop(machine, None)
            self._opened_at[machine] = now
            self._unhealthy.add(machine)
            self.breakers_opened += 1
        else:
            self._failures[machine] = window

    def record_success(self, machine: str) -> None:
        """A query finished cleanly on ``machine``.

        Only a half-open probe success closes the breaker; successes on
        a closed machine clear nothing (the failure window expires on
        its own) and successes on an open machine are stragglers from
        before the trip.
        """
        if self.state(machine) != STATE_HALF_OPEN:
            return
        if self._probes.get(machine, 0) <= 0:
            return
        self._opened_at.pop(machine, None)
        self._unhealthy.discard(machine)
        self._probes.pop(machine, None)
        self._failures.pop(machine, None)
        self.breakers_closed += 1
