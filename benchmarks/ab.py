"""Paired A/B of two source trees on one layered-benchmark workload.

Runs each tree's own ``benchmarks/layered/bench.py --workload W --seed
S --trace 0`` in child interpreters (``PYTHONHASHSEED=0``), one pair at
a time, the tree that goes first alternating from pair to pair so that
drift on a shared host hits both sides alike:

    python benchmarks/ab.py --parent OLD --change NEW \\
        --workload q1_volatile_twitchy --seed 0 --pairs 10

Any option it does not know goes to both benches unchanged (e.g.
``--scale 0.1 --repeats 3``).  It prints, per end-to-end metric, each
side's median and quartiles over the pairs and the ratio of the
medians, then for each host-measured metric (``setup_s``, ``host_s``,
``peak_rss_mb``; lower is better) the median of the per-pair ratios
(change ÷ parent), the pairs the change won and the exact two-sided
sign-test p of that count.  A tied pair counts for neither side and
leaves the sign test.

Only host time may differ between the trees: the exit status is 1 when
``des_events``, a ``sim_*`` metric or ``correct`` differs between any
two runs, and 2 when a bench run gives no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys


#: Metrics measured on the host, not simulated: each gets its own
#: pairs-won line.  Lower is better for all three.
HOST_METRICS = ("setup_s", "host_s", "peak_rss_mb")


def exact(contract: dict) -> dict:
    """What no host-time change may move: ``correct``, ``des_events``
    and every simulated (``sim_*``) metric."""
    return {"correct": contract["correct"],
            **{name: entry["value"]
               for name, entry in contract["metrics"].items()
               if name == "des_events" or name.startswith("sim_")}}


def bench(tree: pathlib.Path, workload: str, seed: int,
          extra: list) -> dict | None:
    """One untraced pass of ``tree``'s own bench: its contract line."""
    command = [sys.executable,
               str(tree / "benchmarks" / "layered" / "bench.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0",
               *extra]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = done.stdout.decode().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    trials = wins + losses
    if trials == 0:
        return 1.0
    tail = sum(math.comb(trials, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** trials)


def spread(values: list) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Other options are passed to both benches.")
    parser.add_argument("--parent", type=pathlib.Path, required=True,
                        help="the tree measured as the baseline")
    parser.add_argument("--change", type=pathlib.Path, required=True,
                        help="the tree measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args, extra = parser.parse_known_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    runs: dict[str, list] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else (
            "change", "parent")
        for side in order:
            contract = bench(trees[side], args.workload, args.seed, extra)
            if contract is None:
                print(f"pair {pair + 1}: {side} bench gave no result",
                      file=sys.stderr)
                return 2
            runs[side].append(contract)
        moves = []
        for name in ("host_s", "setup_s"):
            old, new = (runs[side][-1]["metrics"][name]["value"]
                        for side in ("parent", "change"))
            moves.append(f"{name} {old:.4f} -> {new:.4f}  x{new / old:.3f}")
        print(f"pair {pair + 1:>2} ({order[0]} first): "
              + "  ".join(moves), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs"
          + (f", bench options {' '.join(extra)}" if extra else ""))
    print(f"{'metric':22} {'parent median [quartiles]':>34} "
          f"{'change median [quartiles]':>34} {'ratio':>7}")
    for name in runs["parent"][0]["metrics"]:
        cells, medians = [], []
        for side in ("parent", "change"):
            low, median, high = spread(
                [run["metrics"][name]["value"] for run in runs[side]])
            cells.append(f"{median:>12.6g} [{low:.6g}-{high:.6g}]")
            medians.append(median)
        print(f"{name:22} {cells[0]:>34} {cells[1]:>34} "
              f"{medians[1] / medians[0]:>7.3f}")

    for name in HOST_METRICS:
        pairs = [(parent["metrics"][name]["value"],
                  change["metrics"][name]["value"])
                 for parent, change in zip(runs["parent"], runs["change"])]
        wins = sum(1 for old, new in pairs if new < old)
        losses = sum(1 for old, new in pairs if new > old)
        low, median, high = spread([old for old, _new in pairs])
        ratio = statistics.median(new / old for old, new in pairs)
        print(f"{name}: median ratio x{ratio:.3f}, change lower in {wins} "
              f"of {len(pairs)} pairs (sign test p = "
              f"{sign_test_p(wins, losses):.4f}); parent inter-quartile "
              f"distance {(high - low) / median:.1%} of its median")

    reference = exact(runs["parent"][0])
    differ = sorted({name for side in runs.values() for run in side
                     for name, value in exact(run).items()
                     if value != reference[name]})
    if differ:
        print(f"DIFFER: {', '.join(differ)}")
        return 1
    print(f"same on every run: {', '.join(reference)} "
          f"(correct = {reference['correct']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
