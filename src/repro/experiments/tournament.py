"""Extension experiment: a tournament across adaptation policies.

Not a paper artefact, but the question its policy seam raises: the
paper's controller (inverse-cost target behind fixed thresholds) is
one point in the design space now occupied by every policy in
:func:`repro.policy.default_registry`.  The tournament races all of
them over scenarios drawn from the paper's evaluation — the Fig. 2
one-off WS slowdown, the Fig. 3 join slowdown, the Fig. 5-style
volatile WS cost, and the chaos freeze/quarantine stall — and ranks
them on three axes:

* **normalised response time** per scenario (baseline = the static,
  unperturbed run of the same scenario's query and fault-tolerance
  configuration);
* **adaptations** actually deployed; and
* **oscillation** — workload mass a policy moved one way and then
  moved back (see the Responder's accounting), the signature of an
  under-damped controller.

On the stateless Q1 scenarios the control loop is deliberately
*twitchy* (dense monitoring, low thresholds, short cooldown, cheap
progress estimation) so controller dynamics — overshoot, hunting,
hysteresis — show up within a single query run instead of being
hidden behind the paper's conservative pacing.  The stateful Q2 join
runs twitchy too: the exchange's state channels retain and replicate
hash-join build state across bucket-map changes, so rapid
re-adaptation of the partitioned subplan is loss-free.
"""

from __future__ import annotations

from repro.config import AdaptivityConfig
from repro.experiments.chaos import FREEZE_CHAOS, FREEZE_FT
from repro.experiments.harness import (
    ExperimentReport,
    SweepCell,
    SweepRunner,
    collect_metrics,
    engine_config_for,
)
from repro.policy import default_registry
from repro.workloads.proteins import DemoGrid, DemoGridSpec
from repro.workloads.queries import Q1, Q2
from repro.workloads.scenarios import (
    perturb_join_sleep,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)

_SPEC = DemoGridSpec(sequences_cardinality=600,
                     interactions_cardinality=900)
_SMOKE_SPEC = DemoGridSpec(sequences_cardinality=200,
                           interactions_cardinality=300)

#: Twitchy control loop: dense monitoring, low thresholds, short
#: cooldown and cheap progress estimation so one run exposes many
#: control decisions (the paper's conservative defaults fire a single
#: adaptation per run, which ranks every controller identically).
_TWITCHY = dict(m1_interval=2, window_size=8,
                thres_m=0.08, thres_a=0.08,
                progress_cutoff=0.97,
                cooldown_ms=100.0, decision_latency_ms=100.0)


def _perturb_fig2(grid: DemoGrid) -> None:
    perturb_ws_cost(grid, factor=10.0)


def _perturb_fig3(grid: DemoGrid) -> None:
    perturb_join_sleep(grid, sleep_ms=20.0)


def _perturb_volatile(grid: DemoGrid) -> None:
    perturb_ws_cost_varying(grid, low=2.0, high=20.0)


#: scenario id -> (query, perturbation, fault tolerance, chaos,
#: adaptivity overrides).
_SCENARIOS: dict = {
    "fig2-ws10": (Q1, _perturb_fig2, None, None, _TWITCHY),
    "fig3-sleep20": (Q2, _perturb_fig3, None, None, _TWITCHY),
    "fig3-volatile": (Q1, _perturb_volatile, None, None, _TWITCHY),
    "chaos-freeze": (Q1, None, FREEZE_FT, FREEZE_CHAOS, _TWITCHY),
}

#: Declaration order doubles as column order in the report.
SCENARIO_IDS = tuple(_SCENARIOS)
SMOKE_SCENARIO_IDS = ("fig2-ws10", "fig3-volatile")
SMOKE_POLICIES = ("paper-A1R2", "hysteresis", "pid")


def _tournament_cell(scenario: str, policy: str | None,
                     smoke: bool = False) -> dict:
    """One policy's run of one scenario (policy None = static baseline).

    The baseline runs the scenario's query and fault-tolerance stack
    but neither the perturbation nor the chaos schedule — the paper's
    *no adaptivity / no imbalance* reference point.
    """
    query, perturb, fault_tolerance, chaos, overrides = _SCENARIOS[scenario]
    spec = _SMOKE_SPEC if smoke else _SPEC
    if policy is None:
        adaptivity = AdaptivityConfig.disabled()
        perturb = None
        chaos = None
    else:
        adaptivity = AdaptivityConfig(policy=policy, **overrides)
    grid = DemoGrid(spec, engine_config=engine_config_for(adaptivity),
                    fault_tolerance=fault_tolerance, chaos=chaos)
    if perturb is not None:
        perturb(grid)
    result = grid.run(query, adaptivity)
    collect_metrics(grid, experiment="tournament", scenario=scenario,
                    policy=policy or "static")
    stats = result.stats
    return {
        "response_time_ms": result.response_time_ms,
        "adaptations": stats.adaptations_accepted,
        "oscillation": stats.oscillation,
        "result_count": stats.result_count,
    }


def cells(policies: tuple, scenarios: tuple,
          smoke: bool = False) -> list[SweepCell]:
    sweep = [SweepCell(f"baseline:{scenario}", _tournament_cell,
                       {"scenario": scenario, "policy": None,
                        "smoke": smoke})
             for scenario in scenarios]
    sweep.extend(
        SweepCell(f"{policy}:{scenario}", _tournament_cell,
                  {"scenario": scenario, "policy": policy, "smoke": smoke})
        for policy in policies for scenario in scenarios)
    return sweep


def _tournament(experiment_id: str, title: str, policies: tuple,
                scenarios: tuple, smoke: bool,
                jobs: int) -> ExperimentReport:
    sweep = cells(policies, scenarios, smoke)
    outcomes = dict(zip((cell.label for cell in sweep),
                        SweepRunner(jobs).run(sweep)))
    rows = []
    for policy in policies:
        runs = [(outcomes[f"{policy}:{scenario}"],
                 outcomes[f"baseline:{scenario}"]) for scenario in scenarios]
        normalised = [run["response_time_ms"] / baseline["response_time_ms"]
                      for run, baseline in runs]
        mean = sum(normalised) / len(normalised)
        adaptations = sum(run["adaptations"] for run, _baseline in runs)
        oscillation = sum(run["oscillation"] for run, _baseline in runs)
        complete = all(run["result_count"] == baseline["result_count"]
                       for run, baseline in runs)
        rows.append([policy, *normalised, mean, adaptations,
                     round(oscillation, 3), "yes" if complete else "NO"])
    mean_column = 1 + len(scenarios)
    rows.sort(key=lambda row: (row[mean_column], row[0]))
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        columns=["policy", *scenarios, "mean", "adaptations",
                 "oscillation", "complete"],
        rows=rows,
        notes=("Per-scenario response times normalised to the static, "
               "unperturbed run of the same query and fault-tolerance "
               "configuration (baseline = 1.00); 'mean' averages the "
               "scenario columns and ranks the table.  'oscillation' "
               "sums the workload mass each policy moved and later "
               "reversed; 'complete' checks every run returned the "
               "baseline's full row count.  Every scenario — the "
               "stateful Q2 join included — runs a deliberately "
               "twitchy control loop (M1 every 2 tuples, thresholds "
               "0.08, cooldown 100 ms, decision latency 100 ms) so "
               "controller dynamics surface within single runs."))


def run(jobs: int = 1) -> ExperimentReport:
    """The full tournament: every registered policy, every scenario."""
    return _tournament(
        "tournament",
        "Adaptation-policy tournament across paper scenarios "
        "(extension)",
        tuple(default_registry().names()), SCENARIO_IDS,
        smoke=False, jobs=jobs)


def run_smoke(jobs: int = 1) -> ExperimentReport:
    """A CI-sized slice of the tournament (small data, 3 policies)."""
    return _tournament(
        "tournament-smoke",
        "Policy tournament smoke slice (CI)",
        SMOKE_POLICIES, SMOKE_SCENARIO_IDS,
        smoke=True, jobs=jobs)
