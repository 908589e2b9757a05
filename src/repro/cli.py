"""Command-line interface: run ad-hoc queries on the demo grid.

Installed as ``repro-query``::

    repro-query "select EntropyAnalyser(p.sequence) \
                 from protein_sequences p" --perturb-ws 10 \
                 --policy paper-A1R1

Prints the result summary, the adaptation statistics, and optionally
the traced adaptivity timeline.

A multi-query mode drives the scheduler with an open-loop Poisson
workload over the Q1/Q2 catalog instead of one query::

    repro-query --workload 0.6 --max-concurrent 4 --seed 7

Both modes are bit-for-bit reproducible from ``--seed``: the grid's
data, perturbation noise and the workload driver's arrival sequence
all derive from it.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.chaos import ChaosConfig, MachineCrash, MachineFreeze, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.errors import ConfigurationError, QueryFailedError
from repro.policy import POLICIES
from repro.sched import WorkloadDriver, WorkloadSpec
from repro.telemetry import format_timeline
from repro.workloads import (
    COORDINATOR,
    DATA_HOST,
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    compute_machine_name,
    perturb_join_sleep,
    perturb_ws_cost,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query",
        description=("Run a query on the simulated Grid deployment of "
                     "'Adapting to Changing Resource Performance in Grid "
                     "Query Processing' (VLDB DMG 2005)."))
    parser.add_argument("query", nargs="?", default=None,
                        help="SQL text (demo query class); omit with "
                             "--workload")
    parser.add_argument("--workload", type=float, metavar="QPS",
                        help="multi-query mode: drive Poisson arrivals "
                             "at QPS queries/second over the Q1/Q2 "
                             "catalog instead of one query")
    parser.add_argument("--workload-duration", type=float, default=30000.0,
                        metavar="MS",
                        help="arrival window for --workload "
                             "(default 30000 ms)")
    parser.add_argument("--max-concurrent", type=int, default=4,
                        help="scheduler: sessions running at once "
                             "(default 4)")
    parser.add_argument("--max-queued", type=int, default=16,
                        help="scheduler: admission queue bound "
                             "(default 16)")
    parser.add_argument("--static", action="store_true",
                        help="disable adaptivity (the static system)")
    parser.add_argument("--policy", choices=sorted(POLICIES),
                        default="paper-A1R2", metavar="NAME",
                        help="adaptation policy (default paper-A1R2: "
                             "the paper's A1 assessment, R2 response); "
                             "one of: " + ", ".join(sorted(POLICIES)))
    parser.add_argument("--machines", type=int, default=2,
                        help="compute machines (default 2)")
    parser.add_argument("--degree", type=int, default=None,
                        help="cap intra-operator parallelism")
    parser.add_argument("--sequences", type=int, default=3000,
                        help="protein_sequences cardinality")
    parser.add_argument("--interactions", type=int, default=4700,
                        help="protein_interactions cardinality")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed")
    parser.add_argument("--perturb-ws", type=float, metavar="FACTOR",
                        help="make the WS call FACTOR times costlier on "
                             "the first compute machine")
    parser.add_argument("--perturb-sleep", type=float, metavar="MS",
                        help="sleep MS before each join tuple on the "
                             "first compute machine")
    parser.add_argument("--fail-machine", metavar="NAME",
                        help="crash NAME mid-run (enables fault "
                             "tolerance and one spare)")
    parser.add_argument("--fail-at", type=float, default=5000.0,
                        metavar="MS", help="failure time (default 5000)")
    parser.add_argument("--chaos-drop", type=float, default=0.0,
                        metavar="P", help="drop each remote data/"
                        "notify/request/response message with "
                        "probability P (seed-reproducible)")
    parser.add_argument("--chaos-duplicate", type=float, default=0.0,
                        metavar="P", help="duplicate each remote "
                        "message with probability P")
    parser.add_argument("--chaos-delay", type=float, default=0.0,
                        metavar="P", help="add extra link occupancy to "
                        "each remote message with probability P")
    parser.add_argument("--chaos-delay-ms", type=float, default=25.0,
                        metavar="MS", help="extra delay per delayed "
                        "message (default 25 ms)")
    parser.add_argument("--chaos-ws-fail", type=float, default=0.0,
                        metavar="P", help="fail each Web Service "
                        "invocation transiently with probability P")
    parser.add_argument("--chaos-freeze", action="append", default=[],
                        metavar="MACHINE:AT_MS:DURATION_MS",
                        help="freeze MACHINE for DURATION_MS starting "
                        "at AT_MS (repeatable; enables fault tolerance "
                        "with a suspect timeout)")
    parser.add_argument("--chaos-crash", action="append", default=[],
                        metavar="MACHINE:AT_MS",
                        help="permanently crash MACHINE at AT_MS "
                        "(repeatable; enables fault tolerance and one "
                        "spare; queries that cannot recover settle "
                        "with a typed failure)")
    parser.add_argument("--query-timeout", type=float, default=None,
                        metavar="MS", help="workload mode: abort any "
                        "query still running after MS (typed "
                        "deadline-exceeded failure)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="workload mode: re-place a failed query "
                        "up to N total attempts, blacklisting the "
                        "machine that sank the previous attempt")
    parser.add_argument("--max-recoveries", type=int, default=None,
                        metavar="N", help="per-query machine-recovery "
                        "budget: the N+1th machine loss fails the "
                        "query with a typed outcome (default: "
                        "unlimited)")
    parser.add_argument("--suspect-timeout", type=float, default=None,
                        metavar="MS", help="quarantine a clone silent "
                        "for MS (between heartbeat interval and "
                        "failure timeout; default 1000 with "
                        "--chaos-freeze)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the traced adaptivity timeline")
    parser.add_argument("--rows", type=int, default=5, metavar="N",
                        help="result rows to print (default 5)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run's metrics snapshot (machine "
                             "utilisation, loop latencies, per-query "
                             "statistics) as JSON Lines to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 20 "
                             "functions by cumulative time to stderr")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="dump the raw pstats profile to PATH "
                             "(implies --profile; inspect with "
                             "'python -m pstats PATH')")
    return parser


def write_metrics(args: argparse.Namespace, grid: DemoGrid) -> None:
    if args.metrics_out:
        count = grid.context.metrics.write_jsonl(args.metrics_out)
        print(f"metrics: {count} records written to {args.metrics_out}")


def run_workload(args: argparse.Namespace, grid: DemoGrid,
                 adaptivity: AdaptivityConfig) -> int:
    """Multi-query mode: open-loop Poisson arrivals into the scheduler."""
    retry = None
    if args.retries is not None:
        retry = RetryPolicy(max_attempts=args.retries,
                            backoff_base_ms=100.0, backoff_cap_ms=2000.0)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=args.max_concurrent, max_queued=args.max_queued,
        query_timeout_ms=args.query_timeout, retry=retry))
    driver = WorkloadDriver(scheduler, WorkloadSpec(
        arrival_rate_qps=args.workload,
        duration_ms=args.workload_duration,
        catalog=(Q1, Q2),
        adaptivity=adaptivity,
        degree=args.degree))
    report = driver.run()
    print(f"offered: {report.offered} queries "
          f"({args.workload:g}/s over "
          f"{args.workload_duration / 1000.0:g} s, seed {args.seed})")
    print(f"admitted: {report.admitted}  rejected: {report.rejected}  "
          f"completed: {report.completed}")
    print(f"outcomes: {report.completed} succeeded, {report.failed} "
          f"failed, {report.retried} retries, {report.timed_out} "
          f"timeouts (availability {report.availability:.0%})")
    print(f"throughput: {report.throughput_qps:.2f} queries/s "
          f"(makespan {report.makespan_ms / 1000.0:.2f} s simulated)")
    print(f"queue wait: p50 {report.queue_wait_p50_ms / 1000.0:.2f} s, "
          f"p95 {report.queue_wait_p95_ms / 1000.0:.2f} s")
    print(f"response:   p50 {report.response_p50_ms / 1000.0:.2f} s, "
          f"p95 {report.response_p95_ms / 1000.0:.2f} s")
    utilisation = ", ".join(
        f"{name} {value:.0%}"
        for name, value in sorted(report.machine_utilisation.items()))
    print(f"utilisation: {utilisation}")
    if grid.chaos is not None and grid.chaos.machines_crashed:
        print(f"crashes: {grid.chaos.machines_crashed} machines "
              "permanently lost")
    write_metrics(args, grid)
    if args.timeline:
        print()
        print(format_timeline(grid.context.tracer.events,
                              categories={"scheduler"}))
    return 0


def _validated_chaos(parser: argparse.ArgumentParser,
                     args: argparse.Namespace,
                     machine_names: list[str]) -> ChaosConfig | None:
    for flag, value in (("--chaos-drop", args.chaos_drop),
                        ("--chaos-duplicate", args.chaos_duplicate),
                        ("--chaos-delay", args.chaos_delay),
                        ("--chaos-ws-fail", args.chaos_ws_fail)):
        if not 0.0 <= value <= 1.0:
            parser.error(f"{flag} must be a probability in [0, 1], "
                         f"got {value:g}")
    freezes = _machine_faults(parser, "--chaos-freeze", args.chaos_freeze,
                              "MACHINE:AT_MS:DURATION_MS", MachineFreeze,
                              machine_names)
    crashes = _machine_faults(parser, "--chaos-crash", args.chaos_crash,
                              "MACHINE:AT_MS", MachineCrash, machine_names)
    if not (args.chaos_drop or args.chaos_duplicate or args.chaos_delay
            or args.chaos_ws_fail or freezes or crashes):
        return None
    return ChaosConfig.lossy(
        drop_probability=args.chaos_drop,
        duplicate_probability=args.chaos_duplicate,
        delay_probability=args.chaos_delay,
        delay_ms=args.chaos_delay_ms,
        ws_failure_probability=args.chaos_ws_fail,
        freezes=freezes,
        crashes=crashes)


def _machine_faults(parser: argparse.ArgumentParser, flag: str,
                    texts: list[str], shape: str, fault: type,
                    machine_names: list[str]) -> tuple:
    """Parse each ``shape``-formatted ``flag`` value into a ``fault``."""
    faults = []
    for text in texts:
        parts = text.split(":")
        if len(parts) != len(shape.split(":")):
            parser.error(f"{flag} expects {shape}, got {text!r}")
        machine = parts[0]
        if machine not in machine_names:
            parser.error(f"{flag}: unknown machine {machine!r} "
                         f"(expected one of: {', '.join(machine_names)})")
        try:
            faults.append(fault(machine, *map(float, parts[1:])))
        except (ValueError, ConfigurationError) as exc:
            parser.error(f"{flag} {text!r}: {exc}")
    return tuple(faults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.profile or args.profile_out):
        return _run(parser, args)
    # Profiling wraps the whole run (grid construction included) so
    # the kernel's scheduling hot path is visible.  The report goes to
    # stderr: stdout stays identical with and without --profile.
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run(parser, args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"profile: pstats dump written to {args.profile_out} "
                  "(inspect with 'python -m pstats')", file=sys.stderr)
    return status


def _run(parser: argparse.ArgumentParser,
         args: argparse.Namespace) -> int:
    if args.query is None and args.workload is None:
        parser.error("a query is required unless --workload is given")
    machine_names = [COORDINATOR, DATA_HOST] + [
        compute_machine_name(i) for i in range(args.machines)]
    for flag, value, positive in (
            ("--fail-at", args.fail_at, False),
            ("--chaos-delay-ms", args.chaos_delay_ms, False),
            ("--max-recoveries", args.max_recoveries, False),
            ("--workload", args.workload, True),
            ("--workload-duration", args.workload_duration, True),
            ("--query-timeout", args.query_timeout, True),
            ("--suspect-timeout", args.suspect_timeout, True)):
        if value is not None and not (math.isfinite(value) and (
                value > 0 if positive else value >= 0)):
            parser.error(f"{flag} must be a finite number "
                         f"{'>' if positive else '>='} 0, got {value:g}")
    if args.fail_machine and args.fail_machine not in machine_names:
        parser.error(f"--fail-machine: unknown machine "
                     f"{args.fail_machine!r} (expected one of: "
                     f"{', '.join(machine_names)})")
    chaos = _validated_chaos(parser, args, machine_names)
    has_crashes = bool(chaos is not None and chaos.schedule.crashes)
    try:
        spec = DemoGridSpec(
            compute_machines=args.machines,
            sequences_cardinality=args.sequences,
            interactions_cardinality=args.interactions,
            seed=args.seed,
            spare_machines=1 if (args.fail_machine or has_crashes) else 0)
    except ValueError as exc:
        parser.error(str(exc))
    if args.workload is None:
        for flag, value in (("--retries", args.retries),
                            ("--query-timeout", args.query_timeout)):
            if value is not None:
                parser.error(f"{flag} needs --workload")
    wants_suspect = (args.suspect_timeout is not None
                     or (chaos is not None and chaos.schedule.freezes))
    fault_tolerance = None
    if args.fail_machine or has_crashes or wants_suspect:
        suspect_ms = (args.suspect_timeout
                      if args.suspect_timeout is not None else 1000.0)
        try:
            fault_tolerance = FaultToleranceConfig(
                enabled=True, max_recoveries=args.max_recoveries,
                suspect_timeout_ms=suspect_ms if wants_suspect else None)
        except ConfigurationError as exc:
            parser.error(f"--suspect-timeout: {exc}")
    elif args.max_recoveries is not None:
        parser.error("--max-recoveries needs a fault: --fail-machine, "
                     "--chaos-crash, --chaos-freeze or --suspect-timeout")
    grid = DemoGrid(spec, fault_tolerance=fault_tolerance, chaos=chaos)
    for flag, value, perturb in (
            ("--perturb-ws", args.perturb_ws, perturb_ws_cost),
            ("--perturb-sleep", args.perturb_sleep, perturb_join_sleep)):
        if value:
            try:
                perturb(grid, value)
            except ConfigurationError as exc:
                parser.error(f"{flag}: {exc}")
    if args.fail_machine:
        grid.fail_machine_at(args.fail_machine, at_ms=args.fail_at)

    adaptivity = (AdaptivityConfig.disabled() if args.static
                  else AdaptivityConfig(policy=args.policy))
    if args.workload is not None:
        return run_workload(args, grid, adaptivity)
    try:
        result = grid.run(args.query, adaptivity, degree=args.degree)
    except QueryFailedError as exc:
        failure = exc.failure
        print(f"query failed: {failure.cause} "
              f"(machine {failure.failed_machine or 'n/a'}, "
              f"{failure.elapsed_ms / 1000.0:.2f} s elapsed, "
              f"{failure.recoveries} recoveries)")
        write_metrics(args, grid)
        return 1

    stats = result.stats
    print(f"response time: {result.response_time_ms / 1000.0:.2f} s "
          "(simulated)")
    print(f"results: {stats.result_count} rows "
          f"({', '.join(result.schema.names())})")
    for row in result.rows[:args.rows]:
        print(" ", row.values)
    if stats.result_count > args.rows:
        print(f"  ... {stats.result_count - args.rows} more")
    print(f"adaptations: {stats.adaptations_accepted} accepted / "
          f"{stats.proposals_sent} proposed ({stats.policy}); "
          f"tuples per machine: {stats.tuples_per_consumer}")
    if stats.machines_recovered:
        print(f"failures recovered: {stats.machines_recovered} "
              f"({stats.tuples_replayed_for_recovery} tuples replayed)")
    if grid.chaos is not None:
        counters = grid.chaos.counters()
        print(f"chaos: {counters['messages_dropped']} dropped, "
              f"{counters['messages_duplicated']} duplicated, "
              f"{counters['messages_delayed']} delayed, "
              f"{counters['ws_failures_injected']} ws failures; retries "
              f"send {counters['send_retries']} / call "
              f"{counters['call_retries']} / ws {counters['ws_retries']}")
        if counters["machines_crashed"]:
            print(f"crashes: {counters['machines_crashed']} machines "
                  "permanently lost")
        if stats.clones_quarantined or stats.clones_reintegrated:
            print(f"quarantine: {stats.clones_quarantined} clones "
                  f"quarantined, {stats.clones_reintegrated} "
                  "reintegrated")
    write_metrics(args, grid)
    if args.timeline:
        print()
        print(format_timeline(
            grid.context.tracer.events,
            categories={"monitoring", "assessment", "response",
                        "failure"}))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
