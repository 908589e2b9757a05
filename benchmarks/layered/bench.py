#!/usr/bin/env python3
"""Layered benchmark: six workloads, end-to-end and per-layer metrics.

Two ways to call it (see README.md):

``bench.py --workload NAME --seed N --seconds S --trace 0|1``
    One pass of one workload — what the acceptance driver runs.  The
    last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics for ``--trace 0``, the per-layer ones for
    ``--trace 1``.

``bench.py [--seed N] [--scale F] [--repeats N] [--smoke]
[--check-repeat] [--update-baseline]``
    The whole suite: every workload, untraced pass then traced pass,
    every metric printed by name with its unit, details written under
    ``out/``; ``--update-baseline`` commits them to ``baseline.json``.

Each pass runs its workload alone in child interpreters (never two at
once), started with ``PYTHONHASHSEED=0`` and killed by a watchdog if a
simulation hangs, in which case the unfinished run counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, ROOT, HookCost, attribute

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

RUN_SECONDS = 10
#: A pass that has not finished by then has a hung simulation in it.
WATCHDOG_S = 150.0
WORKLOAD_NAMES = ("q1_scan_static", "q2_join_r1", "q1_volatile_twitchy",
                  "mq_contention", "fleet_saturated", "mq_faults")

# -- the metric tables (BENCHMARK.json is generated from these) ---------
#
# Simulated and host quantities never share a unit: ``sim_ms`` is
# simulated time, ``s`` / ``us`` / ``ns`` are host time.

#: (name, unit, better, bound).  Each bound is at least three times the
#: widest spread (inter-quartile distance over median) seen across ten
#: to thirty seeds on the 2-core sandbox, capped at 0.25 (README, Noise).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("des_events", "count", "lower", 0.15),
    ("sim_response_p50_ms", "sim_ms", "lower", 0.25),
    ("sim_response_p95_ms", "sim_ms", "lower", 0.25),
    ("sim_norm_response", "ratio", "lower", 0.25),
    ("sim_throughput_qps", "q/sim_s", "higher", 0.10),
)
#: Host measurements; every other end-to-end metric is a simulated
#: result, a function of the seed, and repeats exactly.
NOISY = ("setup_s", "host_s", "peak_rss_mb")

_COUNT_UNITS = {
    "net.bytes_sent": "bytes", "grid.cpu_util_max": "ratio",
    "grid.cpu_util_data_host": "ratio",
    "engine.exchange.imbalance_ratio": "ratio",
    "core.detection_latency_p50_ms": "sim_ms",
    "core.adaptation_latency_p50_ms": "sim_ms", "core.oscillation": "ratio",
    "sched.availability": "ratio", "sched.wasted_work_ms": "sim_ms",
    "sched.queue_wait_p50_ms": "sim_ms",
}
_HIGHER_IS_BETTER = {
    "trace.coverage", "engine.result_rows", "engine.rows_per_host_s",
    "core.raw_events_per_host_s", "sched.admitted", "sched.completed",
    "sched.availability",
}
#: Exact counts read from public statistics after an untraced run.
COUNTS = (
    "sim.events", "net.bytes_sent", "net.buffers_sent", "net.send_retries",
    "grid.cpu_util_max", "grid.cpu_util_data_host",
    "grid.machines_materialized", "engine.source_rows",
    "engine.result_rows", "engine.exchange.tuples_sent",
    "engine.exchange.tuples_moved", "engine.exchange.duplicates_dropped",
    "engine.exchange.imbalance_ratio", "recovery.tuples_replayed",
    "recovery.machines_recovered", "core.raw_events", "core.notifications",
    "core.proposals", "core.adaptations", "core.skips",
    "core.detection_latency_p50_ms", "core.adaptation_latency_p50_ms",
    "core.oscillation", "services.call_retries", "services.ws_retries",
    "dqp.queries_submitted", "sched.offered", "sched.admitted",
    "sched.rejected", "sched.completed", "sched.failed", "sched.retried",
    "sched.timed_out", "sched.availability", "sched.wasted_work_ms",
    "sched.queue_wait_p50_ms", "chaos.messages_dropped",
    "chaos.messages_duplicated", "chaos.messages_delayed",
    "chaos.machines_crashed",
)


def per_layer_table() -> list:
    """(name, unit, better) of every per-layer metric, in print order."""
    table = []
    for layer in LAYERS:
        table += [(f"{layer}.self_s", "s"), (f"{layer}.entries", "count")]
    table += [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
              ("trace.hook_ns_per_event", "ns"),
              ("sim.host_us_per_event", "us"),
              ("engine.rows_per_host_s", "1/s"),
              ("core.raw_events_per_host_s", "1/s"),
              ("dqp.host_ms_per_query", "ms"),
              ("telemetry.on_off_host_ratio", "ratio"),
              ("queue_wait_p95_ms", "sim_ms"), ("failed_share", "ratio")]
    table += [(name, _COUNT_UNITS.get(name, "count")) for name in COUNTS]
    return [(name, unit,
             "higher" if name in _HIGHER_IS_BETTER else "lower")
            for name, unit in table]


def manifest(whys: dict) -> dict:
    """The content of the repository's BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/layered/bench.py"],
        "paths": ["benchmarks/layered"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": whys[name]}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_table()],
    }


# -- children ---------------------------------------------------------------

def spawn(mode: str, options, deadline: float) -> tuple:
    """Run one child to completion; ``(records, finished cleanly)``."""
    timeout = max(1.0, deadline - time.monotonic())
    command = [sys.executable, str(HERE / "bench.py"), "--child", mode,
               "--workload", options.workload, "--seed", str(options.seed),
               "--scale", repr(options.scale),
               "--seconds", repr(options.seconds),
               "--repeats", str(options.repeats)]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, env=environment, timeout=timeout,
                              stdout=subprocess.PIPE)
        output, clean = done.stdout, done.returncode == 0
    except subprocess.TimeoutExpired as expired:
        # run() has already killed and reaped the child.
        output, clean = expired.stdout or b"", False
        print(f"watchdog: {options.workload} {mode} child killed after "
              f"{timeout:.0f} s", file=sys.stderr)
    records = []
    for line in output.decode().splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by the kill
    return records, clean


def child_main(options) -> int:
    sys.path.insert(0, str(SRC))
    import probe

    probe_before = probe.speed_probe()
    started = time.perf_counter()
    import measure  # imports repro: part of the timed cold set-up

    measure.main(options, started, probe_before)
    measure.emit("end", peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


# -- one pass -----------------------------------------------------------------

def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _same(records: list, key: str) -> bool:
    return all(record[key] == records[0][key] for record in records)


def environment_record(options) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.decode().strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "git_commit": commit,
            "seed": options.seed, "scale": options.scale,
            "load_1min_start": os.getloadavg()[0]}


def run_pass(options) -> dict | None:
    """One workload, one pass; the full detail or None without result."""
    env = environment_record(options)
    if env["load_1min_start"] > env["nproc"] - 1:
        print(f"warning: 1-min load {env['load_1min_start']:.2f} exceeds "
              f"nproc-1; the numbers will measure the OS scheduler",
              file=sys.stderr)
    deadline = time.monotonic() + WATCHDOG_S
    setups = []
    if not options.trace:
        # Cold set-up is timed in children that do nothing else; the
        # measuring child below contributes the last sample.
        for _ in range(options.setup_samples - 1):
            records, _ = spawn("setup", options, deadline)
            setups += [r["setup_s"] for r in records if r["kind"] == "setup"]
    records, clean = spawn("trace" if options.trace else "measure",
                           options, deadline)
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    runs = by_kind.get("run", [])
    timed = [run for run in runs if run["role"] == "timed"]
    if not timed:
        print(f"{options.workload}: no timed run finished",
              file=sys.stderr)
        return None
    setups += [r["setup_s"] for r in by_kind.get("setup", [])]
    offered = timed[0]["offered"]
    # A child that did not finish cleanly lost the run it was in.
    attempted = offered * (len(runs) + (0 if clean else 1))
    failed = (round(sum(run["sim"]["failed_share"] * offered
                        for run in runs))
              + (0 if clean else offered))
    default_telemetry = [run for run in runs
                         if not run["role"].startswith("telemetry")]
    deterministic = (_same(runs, "sim")
                     and _same(default_telemetry, "counts"))
    if not deterministic:
        print(f"{options.workload}: simulated metrics differ between "
              f"runs of one seed", file=sys.stderr)
    host = [run["host_s"] for run in timed]
    host_s = statistics.median(host)
    sim, counts = timed[0]["sim"], timed[0]["counts"]
    end = by_kind.get("end")
    peak_rss_mb = (end[0]["peak_rss_mb"] if end else resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    env.update(load_1min_end=os.getloadavg()[0], repeats=len(timed),
               setup=by_kind.get("setup", [{}])[0])
    detail = {
        "workload": options.workload, "trace": options.trace,
        "correct": clean and deterministic and failed == 0,
        "attempted": attempted, "failed": failed, "environment": env,
        "host_s_quartiles": _quartiles(host),
        "host_raw_s_median": statistics.median(
            run["host_raw_s"] for run in timed),
        "reference": by_kind.get("reference", [{}])[0].get("queries"),
    }
    if not options.trace:
        values = dict(sim, setup_s=statistics.median(setups),
                      host_s=host_s, peak_rss_mb=peak_rss_mb)
        detail["setup_s_samples"] = setups
        detail["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}
        return detail

    values = per_layer_values(detail, runs, by_kind.get("trace"), host_s)
    if values is None:
        print(f"{options.workload}: traced pass incomplete",
              file=sys.stderr)
        return None
    detail["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit, _ in per_layer_table()}
    return detail


def per_layer_values(detail: dict, runs: list, trace, host_s: float):
    """Every per-layer value of a traced pass, or None if it is short.

    ``host_s`` is the median of the pass's untraced default runs.
    """
    traced = [run for run in runs if run["role"] == "traced"]
    flipped = [run for run in runs if run["role"].startswith("telemetry")]
    if not (trace and traced and flipped):
        return None
    trace = trace[0]
    sim, counts = traced[0]["sim"], traced[0]["counts"]
    offered = traced[0]["offered"]
    on = off = statistics.median(run["host_s"] for run in flipped)
    if flipped[0]["role"] == "telemetry_off":
        on = host_s
    else:
        off = host_s
    # The traced run and the timed runs share a child and a machine
    # speed, so raw seconds are compared with raw seconds; the shares
    # are then expressed in (speed-normalised) host_s.
    raw_self_s, hook = attribute(
        trace["layers"],
        HookCost(trace["toy_ns_per_event"], trace["toy_ns_per_span"]),
        detail["host_raw_s_median"] * 1e9)
    raw_total_s = sum(raw_self_s.values())
    self_s = {layer: seconds / raw_total_s * host_s
              for layer, seconds in raw_self_s.items()}
    values = dict(counts)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.entries"] = trace["layers"].get(
            layer, {}).get("entries", 0)
    values.update({
        "trace.overhead_ratio": traced[0]["host_s"] / host_s,
        "trace.coverage": 1.0 - self_s[ROOT] / host_s,
        "trace.hook_ns_per_event": hook.ns_per_event,
        "sim.host_us_per_event": host_s * 1e6 / counts["sim.events"],
        "engine.rows_per_host_s": counts["engine.source_rows"] / host_s,
        "core.raw_events_per_host_s": (
            counts["core.raw_events"] / self_s["core"]
            if self_s.get("core") else 0.0),
        "dqp.host_ms_per_query": host_s * 1e3 / offered,
        "telemetry.on_off_host_ratio": on / off,
        "queue_wait_p95_ms": sim["queue_wait_p95_ms"],
        "failed_share": sim["failed_share"],
    })
    detail["trace_detail"] = dict(trace, hook_ns_per_span=hook.ns_per_span)
    return values


def write_detail(detail: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = (f"pass-{detail['workload']}-seed{detail['environment']['seed']}"
            f"-trace{detail['trace']}.json")
    (out / name).write_text(json.dumps(detail, indent=1) + "\n")


def contract_line(detail: dict) -> str:
    return json.dumps({key: detail[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# -- the suite ------------------------------------------------------------------

def print_table(title: str, details: list) -> None:
    print(f"\n== {title} ==")
    names = [detail["workload"] for detail in details]
    print(f"{'metric':36} {'unit':8} " + " ".join(f"{n[:15]:>15}"
                                                  for n in names))
    for metric in details[0]["metrics"]:
        unit = details[0]["metrics"][metric]["unit"]
        cells = " ".join(f"{detail['metrics'][metric]['value']:>15.6g}"
                         for detail in details)
        print(f"{metric:36} {unit:8} {cells}")


def run_suite(options, passes=(0, 1)) -> tuple:
    """The given passes of every workload: ``(details by key, all ok)``."""
    details, ok = {}, True
    for trace in passes:
        done = []
        for workload in options.workloads:
            options.workload, options.trace = workload, trace
            detail = run_pass(options)
            if detail is None:
                ok = False
                continue
            write_detail(detail)
            details[f"{workload}:{trace}"] = detail
            done.append(detail)
            ok &= detail["correct"]
            if not trace:
                q1, q2, q3 = detail["host_s_quartiles"]
                print(f"{workload}: host_s quartiles {q1:.4f} {q2:.4f} "
                      f"{q3:.4f} over N={detail['environment']['repeats']}"
                      f" (raw median {detail['host_raw_s_median']:.4f} s), "
                      f"failed {detail['failed']}/{detail['attempted']}",
                      file=sys.stderr)
        if done:
            print_table("per-layer metrics (traced pass)" if trace
                        else "end-to-end metrics (untraced pass)", done)
    return details, ok


def flatten(details: dict) -> dict:
    return {key: {name: metric["value"]
                  for name, metric in detail["metrics"].items()}
            for key, detail in details.items()}


def compare(first: dict, second: dict) -> list:
    """Violations between two suite results of the same code and seed:
    deterministic metrics must be identical, noisy ones within bound."""
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    problems = []
    for key, metrics in first.items():
        other = second.get(key)
        if other is None:
            problems.append(f"{key}: missing from second set")
            continue
        if key.endswith(":1"):
            # Per-layer times are unbounded; the counts must repeat.
            problems += [
                f"{key} {name}: {metrics[name]} != {other[name]}"
                for name in COUNTS + ("queue_wait_p95_ms", "failed_share")
                if metrics[name] != other[name]]
            continue
        for name, value in metrics.items():
            if name not in NOISY:
                if value != other[name]:
                    problems.append(f"{key} {name}: {value} != "
                                    f"{other[name]}")
            else:
                slack = max(bounds[name] * value,
                            0.05 if name == "setup_s" else 0.0)
                if abs(other[name] - value) > slack:
                    problems.append(
                        f"{key} {name}: {value:.4f} vs {other[name]:.4f} "
                        f"(allowed {slack:.4f})")
    return problems


def suite_main(options) -> int:
    if options.smoke:
        options.scale, options.repeats, options.setup_samples = 0.1, 1, 1
    details, ok = run_suite(options)
    problems = []
    if options.smoke:
        # Every name in the manifest is emitted, with its unit.
        expected = json.loads((REPO / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for workload in options.workloads:
                got = details.get(f"{workload}:{trace}", {}).get(
                    "metrics", {})
                for entry in expected[section]:
                    if got.get(entry["name"], {}).get("unit") != entry[
                            "unit"]:
                        problems.append(f"{workload}: {entry['name']} not "
                                        f"emitted in {entry['unit']}")
        # Every pass runs its workload at least twice and compares; a
        # second seed must replay just as exactly.
        options.seed += 1
        ok &= run_suite(options, passes=(0,))[1]
    if options.check_repeat:
        again, again_ok = run_suite(options)
        ok &= again_ok
        problems += compare(flatten(details), flatten(again))
    if options.update_baseline:
        (HERE / "baseline.json").write_text(json.dumps({
            "note": "Seed-0 numbers of the commit that introduced the "
                    "benchmark; the parent for every later claim.",
            "environment": {key: detail["environment"]
                            for key, detail in details.items()},
            "host_s_quartiles": {
                key: detail["host_s_quartiles"]
                for key, detail in details.items() if key.endswith(":0")},
            "metrics": flatten(details)}, indent=1) + "\n")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("suite " + ("ok" if ok and not problems else "FAILED"),
          file=sys.stderr)
    return 0 if ok and not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring window of the untraced pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply sizes (investigation only)")
    parser.add_argument("--repeats", type=int, default=0,
                        help="fixed number of timed repeats "
                             "(default: fill --seconds, at least 3)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the tables")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    options.setup_samples = 3
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if options.child:
        return child_main(options)
    if options.write_manifest:
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS
        (REPO / "BENCHMARK.json").write_text(json.dumps(manifest(
            {name: w.why for name, w in WORKLOADS.items()}), indent=2)
            + "\n")
        return 0
    if options.workload is None or options.smoke or options.check_repeat \
            or options.update_baseline:
        options.workloads = ([options.workload] if options.workload
                             else list(WORKLOAD_NAMES))
        return suite_main(options)
    detail = run_pass(options)
    if detail is None:
        return 1
    write_detail(detail)
    print(contract_line(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
