"""The scheduling optimizer (GDQS compile stage).

Mirrors the static OGSA-DQP pipeline the paper builds on ([11]): the
query is "parsed, optimised, and scheduled employing intra-operator
parallelism".  Decisions made here:

* each scan runs on the machine hosting its Grid Data Service;
* the compute subplan (WS calls or the join) is partitioned across the
  registry's compute machines (optionally capped by ``degree``),
  excluding data hosts and the coordinator where possible;
* initial weights are proportional to the machines' nominal speeds
  (uniform for the paper's homogeneous testbed);
* joins get hash-bucket partitioning on the join key, stateless
  pipelines weighted round-robin.

The optimizer never participates in adaptation: once the plan is
deployed, rebalancing is fully decentralised (§2).
"""

from __future__ import annotations

import itertools
import typing

from repro.errors import PlanningError
from repro.grid.registry import ResourceRegistry
from repro.planner.logical import LogicalPlan, LogicalScan
from repro.planner.physical import (
    COMPUTE_SUBPLAN,
    FEED_SUBPLAN_PREFIX,
    PhysicalPlan,
    POLICY_HASH,
    POLICY_WRR,
    ComputeSubplan,
    ScanSubplan,
)

_query_ids = itertools.count(1)


def _rank_order(registry: ResourceRegistry,
                machine_order: typing.Sequence[str] | None
                ) -> typing.Iterator[str]:
    """Compute machines, most preferred first: the listed ones in the
    given order (first occurrence wins), then the unlisted ones in
    registry order.  Lazy, so a walk that stops early reads a prefix."""
    listed: set[str] = set()
    for name in machine_order or ():
        if registry.is_compute(name) and name not in listed:
            listed.add(name)
            yield name
    for name in registry.compute_machines():
        if name not in listed:
            yield name


def _pick_compute_machines(registry: ResourceRegistry,
                           data_hosts: set[str], coordinator: str,
                           degree: int | None,
                           machine_order: typing.Sequence[str] | None = None,
                           exclude: typing.Container[str] = ()
                           ) -> list[str]:
    """The first ``degree`` (default: all) machines of the strictest
    non-empty tier, in rank order.

    Permanently crashed machines are never picked: a fragment deployed
    there would park its dispatch behind a closed CPU gate forever.
    The tiers relax two preferences in turn, each only when every
    stricter tier is empty: keep off the data hosts and the
    coordinator, then honour ``exclude`` (the scheduler's retry path
    blacklists the machine that failed the previous attempt; unlike a
    crash the blacklist is advisory).  The walk stops as soon as the
    strictest tier holds ``degree`` machines, so its cost is the walked
    prefix, not the fleet, and crash checks use
    :meth:`~ResourceRegistry.peek` (a machine never built cannot have
    crashed) so no lazy machine is built here.
    """
    if degree is not None and degree < 1:
        raise PlanningError(f"degree must be >= 1: {degree}")
    tiers: tuple[list[str], ...] = ([], [], [], [])
    for name in _rank_order(registry, machine_order):
        machine = registry.peek(name)
        if machine is not None and machine.is_crashed:
            continue
        tier = tiers[2 * (name in exclude)
                     + (name in data_hosts or name == coordinator)]
        tier.append(name)
        if tier is tiers[0] and len(tier) == degree:
            return tier
    chosen = next((tier for tier in tiers if tier), [])
    if degree is not None and degree > len(chosen):
        raise PlanningError(
            f"degree {degree} exceeds available machines {len(chosen)}")
    if not chosen:
        raise PlanningError("no compute machines available")
    return chosen[:degree]


def _initial_weights(registry: ResourceRegistry,
                     machine_names: typing.Sequence[str]) -> tuple:
    """Weights proportional to nominal machine speed at plan time."""
    speeds = [registry.machine(name).cpu.speed_at(0.0)
              for name in machine_names]
    total = sum(speeds)
    return tuple(speed / total for speed in speeds)


def _scan_subplan(logical_scan: LogicalScan, registry: ResourceRegistry,
                  port: int, key_position: int | None,
                  ordinal: int) -> ScanSubplan:
    metadata = registry.table(logical_scan.table_name)
    return ScanSubplan(
        subplan_id=f"{FEED_SUBPLAN_PREFIX}{ordinal}",
        table_name=logical_scan.table_name,
        machine_name=metadata.machine_name,
        target_port=port,
        key_position=key_position,
        row_bytes=logical_scan.schema.width_bytes,
        estimated_total=metadata.cardinality,
        filters=tuple(logical_scan.filters))


def optimize(logical: LogicalPlan, registry: ResourceRegistry,
             coordinator_machine: str, degree: int | None = None,
             query_id: str | None = None,
             machine_order: typing.Sequence[str] | None = None,
             exclude_machines: typing.Container[str] = ()
             ) -> PhysicalPlan:
    """Turn a logical plan into a deployable physical plan.

    ``machine_order`` expresses a caller preference over compute
    machines (most preferred first); the multi-query scheduler passes
    the least-loaded ordering so capped-degree sessions spread across
    the pool instead of piling onto the registry's first machines.
    ``exclude_machines`` is a best-effort blacklist (retry
    re-placement); crashed machines are always excluded.
    """
    data_hosts = {registry.table(scan.table_name).machine_name
                  for scan in logical.scans}
    compute_machines = _pick_compute_machines(
        registry, data_hosts, coordinator_machine, degree, machine_order,
        exclude_machines)
    weights = _initial_weights(registry, compute_machines)
    query_id = query_id or f"q{next(_query_ids)}"

    applies = tuple((apply.function_name, apply.argument_position)
                    for apply in logical.applies)
    for function_name, _pos in applies:
        if not registry.has_operation(function_name):
            raise PlanningError(f"unknown WS operation {function_name!r}")

    if logical.join is not None:
        join = logical.join
        scans = (
            _scan_subplan(join.build, registry, port=0,
                          key_position=join.build_key_position, ordinal=0),
            _scan_subplan(join.probe, registry, port=1,
                          key_position=join.probe_key_position, ordinal=1),
        )
        policy_kind = POLICY_HASH
        join_keys = (join.build_key_position, join.probe_key_position)
        estimated_output = registry.table(join.probe.table_name).cardinality
    else:
        scans = (_scan_subplan(logical.scans[0], registry, port=0,
                               key_position=None, ordinal=0),)
        policy_kind = POLICY_WRR
        join_keys = None
        estimated_output = registry.table(
            logical.scans[0].table_name).cardinality

    compute = ComputeSubplan(
        subplan_id=COMPUTE_SUBPLAN,
        machine_names=tuple(compute_machines),
        policy_kind=policy_kind,
        initial_weights=weights,
        join_keys=join_keys,
        applies=applies,
        project_positions=tuple(logical.project_positions),
        output_row_bytes=logical.output_schema.width_bytes,
        estimated_output=estimated_output)

    return PhysicalPlan(
        query_id=query_id,
        scans=scans,
        compute=compute,
        coordinator_machine=coordinator_machine,
        output_schema=logical.output_schema,
        logical=logical)
