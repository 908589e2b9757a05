"""Command-line entry point: ``python -m repro.experiments <id>``."""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments import EXPERIMENTS, render
from repro.experiments.harness import MetricsSink, set_metrics_sink


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Reproduce the tables and figures of 'Adapting to "
                     "Changing Resource Performance in Grid Query "
                     "Processing' (VLDB DMG 2005)."))
    parser.add_argument(
        "experiments", nargs="+",
        choices=sorted(EXPERIMENTS) + ["all", "fuzz"],
        help="experiment ids to run ('all' runs every one; 'fuzz' "
             "runs the scenario fuzzer and must be named explicitly)")
    parser.add_argument(
        "--metrics-dir", metavar="DIR", default=".",
        help="directory receiving one METRICS_<id>.jsonl per "
             "experiment (default: current directory)")
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="skip writing the per-experiment metrics files")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run each experiment's sweep cells over N worker "
             "processes (default: 1 = serial; results and metrics "
             "are identical whatever N is)")
    parser.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="fuzz only: number of scenarios to generate and check "
             "(default: 50)")
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="fuzz only: master seed of the scenario corpus "
             "(default: 0)")
    parser.add_argument(
        "--fuzz-out", metavar="DIR", default=None,
        help="fuzz only: directory receiving corpus.jsonl, "
             "weights.json and any shrunk repro artifacts "
             "(default: no artifact files)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.budget < 0:
        parser.error(f"--budget must be >= 0, got {args.budget}")
    # 'all' expands in place and deliberately excludes the fuzzer: a
    # campaign's budget and artifact directory are an explicit choice,
    # not a side effect.  Each id runs once, at its first mention.
    names = list(dict.fromkeys(
        expanded for name in args.experiments
        for expanded in (sorted(EXPERIMENTS) if name == "all" else [name])))
    for name in names:
        started = time.time()
        sink = None if args.no_metrics else MetricsSink()
        previous = set_metrics_sink(sink)
        try:
            if name == "fuzz":
                from repro.scengen.fuzz import run as run_fuzz
                report = run_fuzz(jobs=args.jobs, budget=args.budget,
                                  seed=args.seed,
                                  out_dir=args.fuzz_out)
            else:
                report = EXPERIMENTS[name](jobs=args.jobs)
        finally:
            set_metrics_sink(previous)
        print(render(report))
        # Metrics path and wall time go to stderr: stdout must be
        # byte-identical for any --jobs and --metrics-dir (CI diffs it).
        if sink is not None and sink.records:
            path = pathlib.Path(args.metrics_dir) / f"METRICS_{name}.jsonl"
            count = sink.write_jsonl(path)
            print(f"[metrics: {count} records -> {path}]", file=sys.stderr)
        print(f"[{name} completed in {time.time() - started:.1f}s wall]",
              file=sys.stderr)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
