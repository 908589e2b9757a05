"""Executes generated scenarios and digests their runs for oracles.

:func:`fuzz_cell` is the module-level, picklable sweep-cell body: it
takes a scenario as its JSON dict, runs the probe plan on fresh demo
grids, applies every registered oracle and returns a JSON-able
outcome record — so the fuzz corpus is built through the existing
:class:`~repro.experiments.harness.SweepRunner` fork pool and is
byte-identical for any ``--jobs N``.

The probe plan per scenario:

* **main** — the scenario as generated (metrics on, reported to the
  experiment metrics sink);
* **rerun** — the identical configuration again (determinism oracle);
* **unit batch** — same run at ``batch_size=1`` (row-identity oracle),
  skipped when the scenario already runs at 1;
* **quiet** — metrics registry off and an explicitly *disabled*
  ``ChaosConfig`` substituted for ``None`` (zero-cost oracle);
* **baseline** — static, unperturbed, fault-free run of the same
  query/spec/batch (row-conservation reference and feedback
  normaliser).
"""

from __future__ import annotations

import hashlib
import traceback

from repro.chaos import ChaosConfig, MachineCrash, MachineFreeze
from repro.config import AdaptivityConfig, EngineConfig, FaultToleranceConfig
from repro.errors import QueryFailedError
from repro.experiments import harness
from repro.experiments.chaos import FREEZE_FT
from repro.scengen.grammar import PACING_PROFILES, Scenario
from repro.scengen.oracles import ProbeOutcome, RunDigest, check_all
from repro.workloads.proteins import DemoGrid, DemoGridSpec, \
    compute_machine_name
from repro.workloads.queries import Q1, Q2
from repro.workloads.scenarios import (
    perturb_join_sleep,
    perturb_machine_load,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)

_QUERIES = {"Q1": Q1, "Q2": Q2}

#: Crash scenarios detect fast and skip the suspect phase: heartbeats
#: never resume from a permanent loss, so quarantine would only delay
#: the rebuild.
_CRASH_FT = dict(enabled=True, heartbeat_interval_ms=200.0,
                 failure_timeout_ms=700.0)


def grid_spec(scenario: Scenario) -> DemoGridSpec:
    return DemoGridSpec(
        compute_machines=scenario.compute_machines,
        sequences_cardinality=scenario.sequences,
        interactions_cardinality=scenario.interactions,
        seed=scenario.world_seed,
        sites=scenario.sites,
        lazy_machines=scenario.lazy_machines)


def adaptivity_for(scenario: Scenario) -> AdaptivityConfig:
    if not scenario.adaptive:
        return AdaptivityConfig.disabled()
    return AdaptivityConfig(policy=scenario.policy,
                            **PACING_PROFILES[scenario.pacing])


def engine_config_for(scenario: Scenario,
                      batch_size: int | None = None) -> EngineConfig:
    return harness.engine_config_for(adaptivity_for(scenario)).replace(
        batch_size=batch_size or scenario.batch_size)


def chaos_config_for(scenario: Scenario) -> ChaosConfig | None:
    rule = scenario.chaos
    if rule is None:
        return None
    freezes = tuple(
        MachineFreeze(compute_machine_name(f.machine_index),
                      at_ms=f.at_ms, duration_ms=f.duration_ms)
        for f in rule.freezes)
    crashes = tuple(
        MachineCrash(compute_machine_name(c.machine_index),
                     at_ms=c.at_ms)
        for c in rule.crashes)
    return ChaosConfig.lossy(
        drop_probability=rule.drop,
        duplicate_probability=rule.duplicate,
        delay_probability=rule.delay,
        delay_ms=rule.delay_ms,
        ws_failure_probability=rule.ws_failure,
        freezes=freezes,
        crashes=crashes)


def fault_tolerance_for(scenario: Scenario) -> FaultToleranceConfig | None:
    if not scenario.fault_tolerance:
        return None
    if scenario.chaos is not None and scenario.chaos.crashes:
        return FaultToleranceConfig(**_CRASH_FT)
    return FREEZE_FT


def apply_perturbations(grid: DemoGrid, scenario: Scenario) -> None:
    for rule in scenario.perturbations:
        if rule.kind == "ws-cost":
            perturb_ws_cost(grid, factor=rule.factor,
                            machines=rule.machines)
        elif rule.kind == "ws-volatile":
            perturb_ws_cost_varying(grid, low=rule.low, high=rule.high,
                                    machines=rule.machines)
        elif rule.kind == "join-sleep":
            perturb_join_sleep(grid, sleep_ms=rule.sleep_ms,
                               machines=rule.machines)
        elif rule.kind == "machine-load":
            perturb_machine_load(grid, factor=rule.factor,
                                 machines=rule.machines,
                                 start_ms=rule.start_ms,
                                 end_ms=rule.end_ms or float("inf"))
        else:
            raise ValueError(f"unknown perturbation kind {rule.kind!r}")


def _root_channel_counts(grid: DemoGrid) -> tuple[int, int]:
    """(received, discarded) summed over the root exchange channel."""
    received = discarded = -1
    for record in grid.context.metrics.snapshot():
        channel = record.get("labels", {}).get("channel", "")
        if not channel.startswith("root:"):
            continue
        if record.get("name") == "exchange_rows_received":
            received = max(received, 0) + int(record["value"])
        elif record.get("name") == "exchange_rows_discarded":
            discarded = max(discarded, 0) + int(record["value"])
    return received, discarded


def _trace_sha(grid: DemoGrid) -> str:
    timeline = [(event.timestamp, event.category, event.source,
                 event.description)
                for event in grid.context.tracer.events]
    return hashlib.sha256(repr(timeline).encode()).hexdigest()[:16]


def _digest(grid: DemoGrid, result) -> RunDigest:
    rows_sha = hashlib.sha256(
        "\n".join(sorted(repr(values) for values in result.values()))
        .encode()).hexdigest()[:16]
    if grid.context.metrics.enabled:
        sink_rows, sink_discards = _root_channel_counts(grid)
    else:
        sink_rows = sink_discards = -1
    stats = result.stats
    return RunDigest(
        rows_sha=rows_sha, rows_count=stats.result_count,
        trace_sha=_trace_sha(grid), response_ms=stats.response_time_ms,
        events=grid.context.env.events_scheduled,
        adaptations=stats.adaptations_accepted,
        oscillation=round(stats.oscillation, 9),
        sink_rows=sink_rows, sink_discards=sink_discards)


def _run(scenario: Scenario, batch_size: int | None = None,
         metrics_enabled: bool = True,
         quiet_chaos: bool = False, report: bool = False) -> RunDigest:
    chaos = chaos_config_for(scenario)
    if quiet_chaos and chaos is None:
        # A *disabled* config must be indistinguishable from None.
        chaos = ChaosConfig()
    grid = DemoGrid(grid_spec(scenario),
                    engine_config=engine_config_for(scenario, batch_size),
                    fault_tolerance=fault_tolerance_for(scenario),
                    metrics_enabled=metrics_enabled,
                    chaos=chaos)
    apply_perturbations(grid, scenario)
    try:
        result = grid.run(_QUERIES[scenario.query],
                          adaptivity_for(scenario),
                          degree=scenario.degree)
    except QueryFailedError as exc:
        # A typed failure is a clean terminal outcome, not a probe
        # error: digest the failed run so determinism and availability
        # oracles still apply to it.
        return _failed_digest(grid, exc.failure)
    if report:
        harness.collect_metrics(grid, experiment="fuzz",
                                scenario=scenario.scenario_id,
                                policy=scenario.policy,
                                query=scenario.query)
    return _digest(grid, result)


def _failed_digest(grid: DemoGrid, failure) -> RunDigest:
    return RunDigest(
        rows_sha="", rows_count=0, trace_sha=_trace_sha(grid),
        response_ms=failure.elapsed_ms,
        events=grid.context.env.events_scheduled,
        adaptations=0, oscillation=0.0,
        failure=failure.cause)


def _baseline(scenario: Scenario) -> RunDigest:
    static = scenario.replace(policy="static", pacing="paper",
                              perturbations=(), chaos=None,
                              fault_tolerance=False)
    return _run(static)


def probe_scenario(scenario: Scenario) -> ProbeOutcome:
    """Run the full probe plan; crashes become the ``error`` field."""
    record = scenario.to_json()
    try:
        baseline = _baseline(scenario)
        main = _run(scenario, report=True)
        rerun = _run(scenario)
        unit_batch = (None if scenario.batch_size == 1
                      else _run(scenario, batch_size=1))
        quiet = _run(scenario, metrics_enabled=False, quiet_chaos=True)
    except Exception:  # noqa: BLE001 - a crash is a finding, not an exit
        trace = traceback.format_exc().strip().splitlines()
        return ProbeOutcome(scenario=record, main=None, rerun=None,
                            unit_batch=None, quiet=None, baseline=None,
                            error=trace[-1] if trace else "crash")
    return ProbeOutcome(scenario=record, main=main, rerun=rerun,
                        unit_batch=unit_batch, quiet=quiet,
                        baseline=baseline)


def fuzz_cell(scenario: dict) -> dict:
    """Sweep-cell body: probe one scenario, judge it, return JSON.

    Module-level and dict-in/dict-out so a cell crosses the fork
    boundary unchanged (see :class:`SweepCell`).
    """
    parsed = Scenario.from_json(scenario)
    outcome = probe_scenario(parsed)
    violations = check_all(outcome)
    return {
        "id": parsed.scenario_id,
        "scenario": outcome.scenario,
        "rules": list(parsed.rules),
        "error": outcome.error,
        "main": outcome.main.to_json() if outcome.main else None,
        "unit_batch": (outcome.unit_batch.to_json()
                       if outcome.unit_batch else None),
        "baseline": (outcome.baseline.to_json()
                     if outcome.baseline else None),
        "violations": [v.to_json() for v in violations],
    }
