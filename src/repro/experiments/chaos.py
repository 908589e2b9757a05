"""Extension experiment: resilience under injected transient faults.

Not a paper artefact, but the stress test its Grid setting implies:
monitoring-service studies (see PAPERS.md) report message loss and
transient stalls as the dominant failure mode of 2005-era Grid
infrastructure.  Two sweeps:

* a **fault-rate sweep** — Q1 and Q2, adaptivity on and off, under
  increasing link fault rates (drop + duplicate + delay) plus flaky
  Web Service calls for Q1; reported values are normalised to the
  fault-free run of the same configuration, alongside the injected
  fault and retry counts; and
* a **quarantine scenario** — one compute clone freezes mid-run for
  long enough to be declared *suspect* (weights driven to zero, logs
  retained) but recovers before the failure deadline, so it is
  reintegrated rather than rebuilt.

Every run must return the complete, correct row set — the defenses
(unbounded data-plane retries, bounded control-plane retries, tid
provenance) turn faults into latency, never into data loss.
"""

from __future__ import annotations

import types

from repro.chaos import ChaosConfig, FaultSchedule, MachineFreeze
from repro.config import AdaptivityConfig, FaultToleranceConfig
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    SweepCell,
    run_table,
)
from repro.workloads.proteins import DemoGrid, DemoGridSpec
from repro.workloads.queries import Q1, Q2

FAULT_RATES = (0.0, 0.02, 0.08)

_SPEC = DemoGridSpec(sequences_cardinality=600,
                     interactions_cardinality=900)
_DELAY_MS = 30.0
_WS_FAIL_SCALE = 2.0  # WS failures are commoner than link faults

#: The quarantine scenario (also a tournament scenario): one clone
#: stalls 2 s, past the suspect timeout but short of the failure
#: deadline, so it is quarantined and then reintegrated.
FREEZE_FT = FaultToleranceConfig(enabled=True,
                                 heartbeat_interval_ms=200.0,
                                 suspect_timeout_ms=500.0,
                                 failure_timeout_ms=5000.0)
FREEZE_CHAOS = ChaosConfig(enabled=True, schedule=FaultSchedule(freezes=(
    MachineFreeze("compute-2", at_ms=800.0, duration_ms=2000.0),)))


def _chaos_for(rate: float, query: str) -> ChaosConfig | None:
    if rate <= 0:
        return None
    return ChaosConfig.lossy(
        drop_probability=rate,
        duplicate_probability=rate,
        delay_probability=rate,
        delay_ms=_DELAY_MS,
        ws_failure_probability=(min(1.0, rate * _WS_FAIL_SCALE)
                                if query == Q1 else 0.0))


def _chaos_cell(query: str, adaptive: bool = True,
                chaos: ChaosConfig | None = None,
                fault_tolerance: FaultToleranceConfig | None = None
                ) -> types.SimpleNamespace:
    """One run under ``chaos``; returns the row ingredients."""
    grid = DemoGrid(_SPEC, fault_tolerance=fault_tolerance, chaos=chaos)
    result = grid.run(query, AdaptivityConfig() if adaptive
                      else AdaptivityConfig.disabled())
    counters = grid.chaos.counters() if grid.chaos is not None else {}
    return types.SimpleNamespace(
        response_time_ms=result.response_time_ms,
        drops=counters.get("messages_dropped", 0),
        dups=counters.get("messages_duplicated", 0),
        retries=sum(counters.get(f"{kind}_retries", 0)
                    for kind in ("send", "call", "ws")),
        quarantined=result.stats.clones_quarantined,
        results=result.stats.result_count)


def _entries(cell: SweepCell, per: SweepCell) -> list[Stat]:
    return [Stat(cell, per=per)] + [
        Stat(cell, field=field)
        for field in ("drops", "dups", "retries", "quarantined", "results")]


def run(jobs: int = 1) -> ExperimentReport:
    """Fault-rate sweep plus the freeze/quarantine scenario."""
    rows = []
    for query, label in ((Q1, "Q1"), (Q2, "Q2")):
        for adaptive in (True, False):
            switch = "on" if adaptive else "off"
            cells = [SweepCell(f"{label}:{switch}:{rate:g}", _chaos_cell,
                               {"query": query, "adaptive": adaptive,
                                "chaos": _chaos_for(rate, query)})
                     for rate in FAULT_RATES]
            # The first rate is fault-free: the group's baseline.
            rows += [[label, switch, f"{rate:.2f}",
                      *_entries(cell, per=cells[0])]
                     for rate, cell in zip(FAULT_RATES, cells)]
    # Quarantine scenario: transient stall of one clone, Q1 adaptive.
    freeze = {"query": Q1, "fault_tolerance": FREEZE_FT}
    rows.append(["Q1+freeze", "on", "stall", *_entries(
        SweepCell("Q1+freeze:stall", _chaos_cell,
                  dict(freeze, chaos=FREEZE_CHAOS)),
        per=SweepCell("Q1+freeze:baseline", _chaos_cell, freeze))])
    return ExperimentReport(
        experiment_id="chaos",
        title="Transient faults: retry/backoff and clone quarantine "
              "(extension)",
        columns=["query", "adaptive", "fault rate", "normalised time",
                 "drops", "dups", "retries", "quarantined", "results"],
        rows=run_table(rows, jobs),
        notes=("Normalised to the fault-free run of the same (query, "
               "adaptivity) configuration; the freeze row reports the "
               "suspect-clone scenario (one clone stalled 2 s, "
               "quarantined, then reintegrated when its heartbeats "
               "resumed).  Row counts are complete at every fault "
               "rate: retries and tid-provenance de-duplication turn "
               "drops and duplicates into latency, not data loss."))
