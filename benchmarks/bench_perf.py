"""Benchmark: batch-granular execution across morsel sizes.

Runs Q1 (10x WS perturbation) and Q2 (join sleep) at batch sizes
1/8/32/128 with adaptivity disabled, reporting per run:

* wall-clock seconds (host time to simulate the query),
* DES events scheduled (the kernel's work measure),
* allocation growth (``sys.getallocatedblocks`` delta) and the
  tracemalloc peak of a separate traced pass,
* simulated response time — near-identical across batch sizes:
  batching never changes simulated costs, only how contiguously they
  are scheduled, so makespans may drift by well under a percent when
  blocking perturbations interleave differently with channel traffic.

Results are written to ``BENCH_perf.json`` in the repository root;
when a previous report exists, per-scenario wall-clock, allocation and
DES-event deltas against it are printed before it is overwritten.  The
headline acceptance check: batch size 32 must schedule at least 5x
fewer DES events than batch size 1 on the Q1 10x scenario.

Run directly (``python benchmarks/bench_perf.py``) or via pytest
(``pytest benchmarks/bench_perf.py``).  The deterministic part — the
bs 32 DES-event counts — is pinned exactly by the tier-1
``tests/sim/test_event_budget.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time
import tracemalloc

from repro.config import AdaptivityConfig, EngineConfig
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

BATCH_SIZES = (1, 8, 32, 128)

SCENARIOS = {
    "Q1-ws10x": (Q1, lambda grid: perturb_ws_cost(grid, 10.0)),
    "Q2-join-sleep": (Q2, lambda grid: perturb_join_sleep(grid, 12.0)),
}

OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _execute(query_text, perturb, batch_size):
    """One full run; returns (result, grid)."""
    grid = DemoGrid(DemoGridSpec(),
                    engine_config=EngineConfig(batch_size=batch_size))
    perturb(grid)
    result = grid.run(query_text, AdaptivityConfig.disabled())
    return result, grid


def measure(query_text, perturb, batch_size):
    """Measure one scenario/batch-size combination.

    The wall-clock/allocation pass runs untraced; a second pass under
    tracemalloc reports peak traced memory (tracing skews timing, so
    the passes are separate).
    """
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    started = time.perf_counter()
    result, grid = _execute(query_text, perturb, batch_size)
    wall_clock_s = time.perf_counter() - started
    blocks_after = sys.getallocatedblocks()

    tracemalloc.start()
    _execute(query_text, perturb, batch_size)
    _current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "batch_size": batch_size,
        "wall_clock_s": round(wall_clock_s, 4),
        "des_events": grid.context.env.events_scheduled,
        "alloc_blocks_delta": blocks_after - blocks_before,
        "tracemalloc_peak_bytes": traced_peak,
        "sim_response_time_ms": round(result.response_time_ms, 3),
        "result_rows": len(result.rows),
    }


def run_benchmark():
    """Run every scenario at every batch size; returns the report dict."""
    report = {"batch_sizes": list(BATCH_SIZES), "scenarios": {}}
    for name, (query_text, perturb) in SCENARIOS.items():
        runs = [measure(query_text, perturb, batch_size)
                for batch_size in BATCH_SIZES]
        baseline = runs[0]
        for run in runs:
            run["des_event_reduction_vs_bs1"] = round(
                baseline["des_events"] / run["des_events"], 2)
        report["scenarios"][name] = runs
    return report


def load_previous():
    """The committed report, or None when it does not exist yet."""
    try:
        return json.loads(OUTPUT_PATH.read_text())
    except (OSError, ValueError):
        return None


def write_report(report):
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT_PATH


def compute_deltas(previous, report):
    """Per-scenario/batch-size deltas against the previous report.

    Returns ``{scenario: {batch_size: {...}}}`` with wall-clock,
    allocation and DES-event changes; stored in the report under
    ``deltas_vs_previous`` so the committed file carries its own
    before/after record.
    """
    deltas = {}
    for name, runs in report["scenarios"].items():
        old_runs = {run["batch_size"]: run
                    for run in (previous or {}).get("scenarios",
                                                    {}).get(name, [])}
        for run in runs:
            old = old_runs.get(run["batch_size"])
            if old is None:
                continue
            wall_delta = run["wall_clock_s"] - old["wall_clock_s"]
            pct = (100.0 * wall_delta / old["wall_clock_s"]
                   if old["wall_clock_s"] else 0.0)
            deltas.setdefault(name, {})[str(run["batch_size"])] = {
                "wall_clock_delta_s": round(wall_delta, 4),
                "wall_clock_delta_pct": round(pct, 1),
                "alloc_blocks_delta": (run["alloc_blocks_delta"]
                                       - old["alloc_blocks_delta"]),
                "des_events_delta": run["des_events"] - old["des_events"],
            }
    return deltas


def print_deltas(deltas):
    """Render :func:`compute_deltas` output."""
    if not deltas:
        print("no previous BENCH_perf.json; skipping delta report")
        return
    print("\ndeltas vs previous BENCH_perf.json "
          "(negative = this run is cheaper)")
    for name, by_size in deltas.items():
        for batch_size, delta in by_size.items():
            print(f"  {name} bs={batch_size:<3} "
                  f"wall {delta['wall_clock_delta_s']:+.3f}s "
                  f"({delta['wall_clock_delta_pct']:+.1f}%)  "
                  f"alloc blocks {delta['alloc_blocks_delta']:+d}  "
                  f"DES events {delta['des_events_delta']:+d}")


def test_batching_reduces_des_events():
    report = run_benchmark()
    write_report(report)

    for name, runs in report["scenarios"].items():
        by_size = {run["batch_size"]: run for run in runs}
        # Query results are batch-size invariant; the simulated
        # makespan may drift marginally (coarser interleaving of
        # blocking delays with channel traffic), never materially.
        reference = by_size[1]
        for run in runs:
            assert run["result_rows"] == reference["result_rows"], name
            drift = abs(run["sim_response_time_ms"]
                        - reference["sim_response_time_ms"])
            assert drift <= 0.02 * reference["sim_response_time_ms"], name
        # Larger morsels monotonically shrink the event count.
        assert (by_size[1]["des_events"] > by_size[8]["des_events"]
                > by_size[32]["des_events"] >= by_size[128]["des_events"])

    # Acceptance: >= 5x fewer DES events at the default batch size on
    # the Q1 10x-perturbation scenario.
    q1 = {run["batch_size"]: run for run in report["scenarios"]["Q1-ws10x"]}
    reduction = q1[1]["des_events"] / q1[32]["des_events"]
    assert reduction >= 5.0, f"only {reduction:.2f}x event reduction"


def main(argv=None):
    argparse.ArgumentParser(
        description="Batch-granularity benchmark.").parse_args(argv)
    previous = load_previous()
    report = run_benchmark()
    deltas = compute_deltas(previous, report)
    if deltas:
        report["deltas_vs_previous"] = deltas
    path = write_report(report)
    print(f"wrote {path}")
    for name, runs in report["scenarios"].items():
        print(f"\n{name}")
        header = (f"{'batch':>6} {'wall s':>8} {'DES events':>11} "
                  f"{'reduction':>10} {'alloc blocks':>13} {'peak MiB':>9}")
        print(header)
        for run in runs:
            print(f"{run['batch_size']:>6} {run['wall_clock_s']:>8.3f} "
                  f"{run['des_events']:>11} "
                  f"{run['des_event_reduction_vs_bs1']:>9.2f}x "
                  f"{run['alloc_blocks_delta']:>13} "
                  f"{run['tracemalloc_peak_bytes'] / 2**20:>9.1f}")

    print_deltas(deltas)
    return 0


if __name__ == "__main__":
    sys.exit(main())
