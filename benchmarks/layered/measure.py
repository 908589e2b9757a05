"""Child-process side of the benchmark: run one workload, emit records.

The parent (``bench.py``) starts this in a fresh interpreter, one
workload at a time, and reads one JSON object per line from its
standard output: ``setup``, ``reference``, then one ``run`` record per
executed run (warm-up, timed repeats, telemetry-flipped and traced
runs), each flushed as soon as it exists so that a run killed by the
parent's watchdog leaves the finished ones behind.

Importing this module imports ``repro``; the parent never does, so the
``setup`` record times a genuinely cold import.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import statistics
import time

import repro
from repro.errors import AdmissionRejected
from repro.workloads import DATA_HOST, DemoGrid

import tracer as layer_tracer
from probe import normalised, speed_probe
from workloads import STATIC, WORKLOADS, Scenario

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def emit(kind: str, **fields) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


# -- the oracle -------------------------------------------------------------

def reference(scenario: Scenario) -> dict:
    """Per query text: result multiset and response time of a static,
    unperturbed, fault-free run alone on a grid with the same data."""
    oracle = {}
    for text in sorted({text for _, text in scenario.arrivals}):
        result = DemoGrid(scenario.grid.spec).run(
            text, STATIC, degree=scenario.degree)
        oracle[text] = (collections.Counter(result.values()),
                        result.response_time_ms)
    return oracle


# -- one run ---------------------------------------------------------------

def drive(scenario: Scenario) -> int:
    """Submit every arrival when due and drain; returns rejections."""
    scheduler = scenario.scheduler
    env = scenario.grid.context.env
    rejected = 0

    def arrivals():
        nonlocal rejected
        for due_ms, text in scenario.arrivals:
            if due_ms > env.now:
                yield env.timeout(due_ms - env.now)
            try:
                scheduler.submit(text, adaptivity=scenario.adaptivity,
                                 degree=scenario.degree)
            except AdmissionRejected:
                rejected += 1

    env.run(until=env.process(arrivals(), name="layered-arrivals"))
    scheduler.drain()
    return rejected


def nearest_rank(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def _source_rows(text: str, spec) -> int:
    rows = 0
    if "protein_sequences" in text:
        rows += spec.sequences_cardinality
    if "protein_interactions" in text:
        rows += spec.interactions_cardinality
    return rows


def observe(scenario: Scenario, rejected: int, oracle: dict) -> tuple:
    """``(simulated metrics, layer counts)`` of a finished run.

    Everything here is a function of the seed alone and must repeat
    exactly from run to run.
    """
    grid, scheduler = scenario.grid, scenario.scheduler
    context = grid.context
    stats = scheduler.statistics()
    offered = len(scenario.arrivals)
    results, mismatched = [], 0
    for session in scheduler.sessions:
        outcome = session.outcome
        if outcome is None or outcome.failed:
            continue
        results.append(outcome)
        if (collections.Counter(outcome.values())
                != oracle[session.query_text][0]):
            mismatched += 1
    # Rejected, typed-failed, timed-out, never-settled and wrong-result
    # queries all miss: only a completed, correct query counts.
    failed = offered - (len(results) - mismatched)
    finished_at = [session.completed_at for session in scheduler.sessions
                   if session.completed_at is not None]
    makespan_ms = max(finished_at, default=0.0)
    p50 = nearest_rank(stats.response_ms, 0.50)
    reference_ms = statistics.fmean(oracle[text][1]
                                    for _, text in scenario.arrivals)
    sim = {
        "des_events": context.env.events_scheduled,
        "sim_response_p50_ms": p50,
        "sim_response_p95_ms": nearest_rank(stats.response_ms, 0.95),
        "sim_norm_response": p50 / reference_ms,
        "sim_throughput_qps": (len(results) / (makespan_ms / 1000.0)
                               if makespan_ms else 0.0),
        "queue_wait_p95_ms": nearest_rank(stats.queue_waits_ms, 0.95),
        "failed_share": failed / offered,
    }

    query_stats = [result.stats for result in results]

    def total(field: str):
        return sum(getattr(stat, field) for stat in query_stats)

    chaos = (grid.chaos.counters() if grid.chaos is not None
             else collections.defaultdict(int))
    instruments = context.metrics.instruments()

    def counter_sum(name: str) -> float:
        return sum(instrument.value for instrument in instruments
                   if instrument.kind == "counter"
                   and instrument.name == name)

    def histogram_p50(name: str) -> float:
        medians = [instrument.quantile(0.5) for instrument in instruments
                   if instrument.kind == "histogram"
                   and instrument.name == name and instrument.count]
        return statistics.median(medians) if medians else 0.0

    utilisation = stats.machine_utilisation
    registry = context.registry
    counts = {
        "sim.events": context.env.events_scheduled,
        "net.bytes_sent": context.network.bytes_delivered,
        "net.buffers_sent": counter_sum("exchange_buffers_sent"),
        "net.send_retries": chaos["send_retries"],
        "grid.cpu_util_max": max(utilisation.values(), default=0.0),
        "grid.cpu_util_data_host": utilisation.get(DATA_HOST, 0.0),
        "grid.machines_materialized": sum(
            1 for name in grid.compute_machines
            if registry.is_materialized(name)),
        "engine.source_rows": sum(
            _source_rows(session.query_text, grid.spec)
            for session in scheduler.sessions),
        "engine.result_rows": total("result_count"),
        "engine.exchange.tuples_sent": sum(
            sum(stat.tuples_per_consumer) for stat in query_stats),
        "engine.exchange.tuples_moved": total("tuples_moved"),
        "engine.exchange.duplicates_dropped": total("duplicates_dropped"),
        "engine.exchange.imbalance_ratio": (
            statistics.fmean(stat.consumer_imbalance_ratio
                             for stat in query_stats)
            if query_stats else 0.0),
        "recovery.tuples_replayed": total("tuples_replayed_for_recovery"),
        # A GDQS-lifetime counter copied into every query's statistics.
        "recovery.machines_recovered": max(
            (stat.machines_recovered for stat in query_stats), default=0),
        "core.raw_events": total("raw_monitoring_events"),
        "core.notifications": total("cost_notifications"),
        "core.proposals": total("proposals_sent"),
        "core.adaptations": total("adaptations_accepted"),
        "core.skips": (total("skipped_near_completion")
                       + total("skipped_cooldown")
                       + total("skipped_below_threshold")),
        "core.detection_latency_p50_ms": histogram_p50(
            "detection_latency_ms"),
        "core.adaptation_latency_p50_ms": histogram_p50(
            "adaptation_latency_ms"),
        "core.oscillation": total("oscillation"),
        "services.call_retries": chaos["call_retries"],
        "services.ws_retries": chaos["ws_retries"],
        "dqp.queries_submitted": stats.admitted + stats.retried,
        "sched.offered": offered,
        "sched.admitted": stats.admitted,
        "sched.rejected": rejected,
        "sched.completed": stats.completed,
        "sched.failed": stats.failed,
        "sched.retried": stats.retried,
        "sched.timed_out": stats.timed_out,
        "sched.availability": stats.availability,
        "sched.wasted_work_ms": stats.wasted_work_ms,
        "sched.queue_wait_p50_ms": nearest_rank(stats.queue_waits_ms,
                                                0.50),
        "chaos.messages_dropped": chaos["messages_dropped"],
        "chaos.messages_duplicated": chaos["messages_duplicated"],
        "chaos.messages_delayed": chaos["messages_delayed"],
        "chaos.machines_crashed": chaos["machines_crashed"],
    }
    return sim, counts


def run_once(scenario: Scenario, oracle: dict, role: str,
             probe_before: float, tracer=None) -> float:
    """Run ``scenario``, emit its record; returns the closing probe."""
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        rejected = drive(scenario)
    else:
        rejected = tracer.run(lambda: drive(scenario))
    host_raw_s = time.perf_counter() - started
    probe_after = speed_probe()
    sim, counts = observe(scenario, rejected, oracle)
    emit("run", role=role, host_raw_s=host_raw_s,
         host_s=normalised(host_raw_s, probe_before, probe_after),
         sim=sim, counts=counts,
         offered=len(scenario.arrivals))
    return probe_after


# -- child entry point -----------------------------------------------------

def main(args, process_started: float, probe_before: float) -> None:
    workload = WORKLOADS[args.workload]

    def build(metrics=None) -> Scenario:
        return workload.build(args.seed, args.scale, metrics)

    scenario = build()
    setup_raw_s = time.perf_counter() - process_started
    spec = scenario.grid.spec
    emit("setup", setup_raw_s=setup_raw_s,
         setup_s=normalised(setup_raw_s, probe_before, speed_probe()),
         sizes={"sequences": spec.sequences_cardinality,
                "interactions": spec.interactions_cardinality,
                "compute_machines": spec.compute_machines,
                "arrivals": len(scenario.arrivals)})
    if args.child == "setup":
        return

    oracle = reference(scenario)
    emit("reference", queries={text: {"rows": sum(rows.values()),
                                      "response_ms": response_ms}
                               for text, (rows, response_ms)
                               in oracle.items()})
    default_on = scenario.grid.context.metrics.enabled
    probe = run_once(scenario, oracle, "warmup", speed_probe())
    del scenario

    if args.child == "measure":
        deadline = time.perf_counter() + args.seconds
        done = 0
        while (done < args.repeats if args.repeats
               else done < 3 or time.perf_counter() < deadline):
            probe = run_once(build(), oracle, "timed", probe)
            done += 1
        return

    # Traced pass: default runs interleaved with telemetry-flipped
    # ones (so drift hits both alike), then one run under the hook.
    for _ in range(args.repeats or 3):
        probe = run_once(build(), oracle, "timed", probe)
        probe = run_once(build(not default_on), oracle,
                         "telemetry_on" if not default_on
                         else "telemetry_off", probe)
    cost = layer_tracer.calibrate()
    tracer = layer_tracer.LayerTracer(layer_tracer.repro_classifier(
        os.path.dirname(os.path.abspath(repro.__file__))))
    run_once(build(), oracle, "traced", speed_probe(), tracer=tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_jsonl(spans_path, f"{args.workload}:{args.seed}")
    emit("trace", layers=tracer.layer_table(), total_ns=tracer.total_ns,
         toy_ns_per_event=cost.ns_per_event,
         toy_ns_per_span=cost.ns_per_span, spans=len(tracer.spans),
         spans_dropped=tracer.spans_dropped, spans_path=spans_path)
