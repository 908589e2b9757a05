"""Where do the queued DES events come from?

Wraps ``Environment.schedule`` for one run of a layered-benchmark
workload and prints the events queued by call site, as
``event type < caller < caller`` (kernel-internal frames skipped), so
an events-per-row investigation starts from a table.  Changes nothing
in ``src/``; the total equals the benchmark's ``des_events``.

    PYTHONPATH=src python benchmarks/event_sites.py q1_scan_static
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "layered"))

from repro.sim.environment import Environment  # noqa: E402

from measure import drive  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Frames that only relay to ``schedule``: not call sites.
_KERNEL = {"succeed", "fail", "timeout", "event", "__init__"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--depth", type=int, default=2,
                        help="caller frames per site (default 2)")
    args = parser.parse_args(argv)

    sites: collections.Counter = collections.Counter()
    schedule = Environment.schedule

    def counting(env, event, *rest, **kwargs):
        frame = sys._getframe(1)
        while (frame.f_code.co_name in _KERNEL
               and "/repro/sim/" in frame.f_code.co_filename):
            frame = frame.f_back
        names = [type(event).__name__]
        while frame is not None and len(names) <= args.depth:
            code = frame.f_code
            names.append(f"{pathlib.Path(code.co_filename).stem}."
                         f"{code.co_name}")
            frame = frame.f_back
        sites[" < ".join(names)] += 1
        schedule(env, event, *rest, **kwargs)

    scenario = WORKLOADS[args.workload].build(args.seed, args.scale, None)
    Environment.schedule = counting
    try:
        drive(scenario)
    finally:
        Environment.schedule = schedule
    total = scenario.grid.context.env.events_scheduled
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{total} events queued")
    for site, count in sites.most_common():
        print(f"{count:>9} {100.0 * count / total:5.1f} %  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
