"""Incremental two-tier load index for fleet-scale placement.

Sorting every compute machine's committed shares on each dispatch is
O(n log n) per placement over the whole fleet.  This module keeps the
same order in structures maintained *incrementally* on share deltas:

* :class:`LoadIndex` — one tier's least-loaded order, a bisect-kept
  sorted list keyed ``(load, registration_index, name)``.  Updating
  one member is a binary search plus a list splice; enumeration walks
  the already-sorted entries.

* :class:`FleetIndex` — the two-tier topology.  Machines are grouped
  by the registry's sites; each site keeps a member :class:`LoadIndex`
  plus an incrementally-maintained aggregate (total committed shares
  over member count), and a global site tier orders the sites by that
  aggregate.  Placement order is "least-loaded site first, then
  least-loaded machine within each site", optionally truncated to a
  candidate budget so emitting the order costs O(budget), not O(fleet).

**Degenerate single site.**  With one site (every grid that never
names sites) the site tier has one entry and the order is exactly the
flat machine tier: machines sorted by
``(committed_shares, registration_index)``, i.e. a stable sort of the
crash-filtered compute pool by committed shares (crash-filtering
preserves relative order, so pool position is monotone in registration
index).  Loads are re-read as ``sum(machine._shares.values())`` at
update time, so there is no incremental drift.
``tests/sched/test_fleet_index.py`` property-tests the index against
that sort.

Crashed machines are removed lazily: enumeration skips (and drops)
members whose machine object reports ``is_crashed``.  A machine that
was never materialized cannot have crashed — crashing requires the
object — so enumeration never forces lazy construction.
"""

from __future__ import annotations

import bisect
import typing

from repro.grid.registry import ResourceRegistry


class LoadIndex:
    """One tier's incrementally-maintained least-loaded order.

    Members are keyed ``(load, registration_index, name)``; the
    registration index pins the stable tie-break at equal load, and
    the name makes keys total (indices are unique, the name never
    actually decides).
    """

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, str]] = []
        self._keys: dict[str, tuple[float, int, str]] = {}
        self._order: dict[str, int] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._keys

    def add(self, name: str, load: float = 0.0) -> None:
        """Register ``name`` with the next registration index."""
        if name in self._keys:
            raise ValueError(f"duplicate index member: {name}")
        index = self._order.setdefault(name, len(self._order))
        key = (load, index, name)
        bisect.insort(self._entries, key)
        self._keys[name] = key

    def update(self, name: str, load: float) -> None:
        """Re-key ``name`` at ``load`` (no-op for unknown members)."""
        old = self._keys.get(name)
        if old is None:
            return
        if old[0] == load:
            return
        position = bisect.bisect_left(self._entries, old)
        del self._entries[position]
        key = (load, old[1], name)
        bisect.insort(self._entries, key)
        self._keys[name] = key

    def discard(self, name: str) -> None:
        """Remove ``name`` entirely (crashed machine / drained site)."""
        old = self._keys.pop(name, None)
        if old is None:
            return
        position = bisect.bisect_left(self._entries, old)
        del self._entries[position]

    def load(self, name: str) -> float | None:
        key = self._keys.get(name)
        return key[0] if key is not None else None

    def ordered(self) -> typing.Iterator[str]:
        """Members from least to most loaded (stable tie-break)."""
        for _load, _index, name in self._entries:
            yield name


class FleetIndex:
    """Two-tier (site, machine) least-loaded placement order.

    Built over a registry's compute machines; fed load deltas by
    :class:`~repro.sched.fairshare.FairShare` as sessions are admitted
    and released.  Exactly one live index should feed per grid — the
    index mirrors the share ledger it is told about, so a second
    writer charging shares behind its back would go unnoticed (the
    scheduler owns the only FairShare, which owns this index).
    """

    def __init__(self, registry: ResourceRegistry) -> None:
        self.registry = registry
        self._machine_tiers: dict[str, LoadIndex] = {}
        self._site_tier = LoadIndex()
        self._site_of: dict[str, str] = {}
        self._site_total: dict[str, float] = {}
        self._site_count: dict[str, int] = {}
        for name in registry.compute_machines():
            site = registry.site_of(name)
            tier = self._machine_tiers.get(site)
            if tier is None:
                tier = self._machine_tiers[site] = LoadIndex()
                self._site_tier.add(site)
                self._site_total[site] = 0.0
                self._site_count[site] = 0
            machine = registry.peek(name)
            load = machine.committed_shares if machine is not None else 0.0
            tier.add(name, load)
            self._site_of[name] = site
            self._site_total[site] += load
            self._site_count[site] += 1

    def __contains__(self, name: str) -> bool:
        return name in self._site_of

    def update(self, name: str, load: float) -> None:
        """Record that ``name`` now carries ``load`` committed shares.

        Unknown names (data hosts, the coordinator, spares — machines
        sessions occupy but placement never chooses) are ignored.
        """
        site = self._site_of.get(name)
        if site is None:
            return
        tier = self._machine_tiers[site]
        old = tier.load(name)
        if old is None or old == load:
            return
        tier.update(name, load)
        self._site_total[site] += load - old
        if len(self._machine_tiers) > 1:
            self._refresh_site(site)

    def _refresh_site(self, site: str) -> None:
        count = self._site_count[site]
        mean = self._site_total[site] / count if count else float("inf")
        self._site_tier.update(site, mean)

    def _drop(self, name: str, site: str) -> None:
        tier = self._machine_tiers[site]
        load = tier.load(name)
        if load is None:
            return
        tier.discard(name)
        del self._site_of[name]
        self._site_total[site] -= load
        self._site_count[site] -= 1
        if len(self._machine_tiers) > 1:
            self._refresh_site(site)

    def discard(self, name: str) -> None:
        """Remove a (crashed) machine from placement consideration."""
        site = self._site_of.get(name)
        if site is not None:
            self._drop(name, site)

    def order(self, limit: int | None = None) -> list[str]:
        """Placement preference: least-loaded site, then machine.

        Crashed machines are skipped and dropped as they are
        encountered (their load is removed from the site aggregate),
        so a crash costs one lazy deletion instead of a per-placement
        fleet filter.  ``limit`` truncates the emitted list — the
        candidate-budget fast path for very large fleets.
        """
        registry = self.registry
        out: list[str] = []
        crashed: list[str] = []
        for site in list(self._site_tier.ordered()):
            for name in self._machine_tiers[site].ordered():
                machine = registry.peek(name)
                if machine is not None and machine.is_crashed:
                    crashed.append(name)
                    continue
                out.append(name)
                if limit is not None and len(out) >= limit:
                    break
            if limit is not None and len(out) >= limit:
                break
        for name in crashed:
            self.discard(name)
        return out
