"""Where do the queued DES events come from?

Wraps ``Environment.schedule`` for one run of a layered-benchmark
workload and prints the events queued by call site, as
``event type < caller < caller`` (kernel-internal frames skipped), so
an events-per-row investigation starts from a table.  Changes nothing
in ``src/``; the total equals the benchmark's ``des_events``.

    PYTHONPATH=src python benchmarks/event_sites.py q1_scan_static

A morsel's operator charges are paid as one CPU task labelled
``morsel``, so the event table no longer says what a task paid for.
``--charges`` wraps ``EvalContext.charge`` / ``settle`` instead and
prints the charges per label and how many charges each payment fused.

``--dead`` also prints, by the same call sites, the events dispatched
with no callback: nothing observed them, so queuing them was pure
kernel cost (DESIGN decision 38).

``--messages`` also prints the message deliveries queued, by
``(kind, subject)``: every one is an event of the ``network.deliver``
rows above.  A heartbeat whose arrival the GDQS failover takes as data
queues none (decision 39).

``--host`` also prints where the host time goes, by the same call
sites: the time from each event's pop to the next pop (to the end of
the run for the last) is charged to the site that queued the event,
so a row is what dispatching that site's events cost, callbacks and
the process resumes they drive included.  The rows add up to the
timed loop: first pop to the end of the run, less the time spent in
this script's own hooks (measured and left out; what the hooks cost
outside the measured part, 2-3 µs per event, stays in).  An
uncounted warm-up run goes first.  Rank by total to see where a run's
host time goes, by µs per event to see which events are expensive.

``--heap`` reports what the run costs the cycle collector: per GC
generation the collections, their pause seconds and the objects they
collected (from ``gc.callbacks``), each generation-2 pass with the
number of queries finished by then, the cyclic garbage a full
collection finds after the run while the grid is still referenced (by
type; a run makes none, decision 43), and the GC-tracked objects still
alive after the run by type, against the freshly built grid.

``--peak`` runs the timed run (the workload built first, outside it)
under ``tracemalloc`` and prints its traced peak and where the heap
was at its largest, so a memory claim starts from a table too.  Every
256 dispatched events it reads the traced size, and at a new maximum
10 % above the last snapshot's it takes one (at most 48, so the kept
one is within ~10 % of the largest size read; a set built and dropped
inside one event lifts the traced peak above it unseen); it prints the
largest snapshot's top allocation sites as ``file:line < caller <
caller`` (``--depth`` callers).  The listed rows sum to at most the snapshot total printed
above them.  Host time under tracing means nothing: not with
``--host``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import pathlib
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "layered"))

from repro.engine.operators.base import EvalContext  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.sim.environment import Environment  # noqa: E402

from measure import drive  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Frames that only relay to ``schedule``: not call sites.
_KERNEL = {"succeed", "fail", "timeout", "event", "__init__"}


class ChargeCounter:
    """Counts ledger charges per label and charges fused per payment."""

    def __init__(self) -> None:
        #: label -> [charge calls, items, perturbed work owed].
        self.labels: dict[str, list] = collections.defaultdict(
            lambda: [0, 0, 0.0])
        #: charges paid by one settle -> number of such settles.
        self.fused: collections.Counter = collections.Counter()
        self._unpaid: collections.Counter = collections.Counter()
        self._charge = EvalContext.charge
        self._settle = EvalContext.settle

    def install(self) -> None:
        def charge(ctx, label, work_per_item, count=1):
            before = ctx.owed_work
            self._charge(ctx, label, work_per_item, count)
            entry = self.labels[label.split(":")[0]]
            entry[0] += 1
            entry[1] += count
            entry[2] += ctx.owed_work - before
            self._unpaid[id(ctx)] += 1

        def settle(ctx):
            self.fused[self._unpaid.pop(id(ctx), 0)] += 1
            return self._settle(ctx)

        EvalContext.charge = charge
        EvalContext.settle = settle

    def uninstall(self) -> None:
        EvalContext.charge = self._charge
        EvalContext.settle = self._settle

    def report(self) -> None:
        charges = sum(entry[0] for entry in self.labels.values())
        paying = sum(n for fused, n in self.fused.items() if fused)
        print(f"{charges} charges in {paying} payments "
              f"({charges / max(1, paying):.2f} per payment; "
              f"{self.fused[0]} settles owed no charge)")
        print(f"{'charges':>9} {'items':>9} {'work ms':>12}  label")
        for label, (calls, items, work) in sorted(
                self.labels.items(), key=lambda kv: -kv[1][0]):
            print(f"{calls:>9} {items:>9} {work:>12.1f}  {label}")
        print(f"{'payments':>9}  charges fused")
        for fused, n in sorted(self.fused.items()):
            if fused:
                print(f"{n:>9}  {fused}")


def cyclic_garbage() -> collections.Counter:
    """What a full collection finds unreachable now, by type."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def tracked_by_type() -> collections.Counter:
    """GC-tracked objects alive now (after a full collection), by type."""
    gc.collect()
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


class HeapCounter:
    """Collections, pause time and collected objects per GC generation."""

    def __init__(self, finished) -> None:
        #: generation -> [collections, pause seconds, objects collected].
        self.generations = {generation: [0, 0.0, 0]
                            for generation in range(3)}
        #: Each generation-2 pass: (queries finished, pause s, collected).
        self.full_passes: list[tuple[int, float, int]] = []
        self._finished = finished
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        entry = self.generations[info["generation"]]
        entry[0] += 1
        entry[1] += pause
        entry[2] += info["collected"]
        if info["generation"] == 2:
            self.full_passes.append((self._finished(), pause,
                                     info["collected"]))

    def report(self, garbage: collections.Counter,
               fresh: collections.Counter,
               after: collections.Counter) -> None:
        print(f"{'gen':>3} {'collections':>11} {'pause s':>9} "
              f"{'collected':>9}")
        for generation, (count, pause, collected) in (
                self.generations.items()):
            print(f"{generation:>3} {count:>11} {pause:>9.3f} "
                  f"{collected:>9}")
        for finished, pause, collected in self.full_passes:
            print(f"  gen-2 pass after {finished} finished queries: "
                  f"{pause * 1000:.1f} ms, {collected} collected")
        collected = sum(entry[2] for entry in self.generations.values())
        print(f"Cyclic garbage: {sum(garbage.values())} objects found by a "
              f"full collection after the run, {collected} collected by "
              "the passes in it")
        for name, count in garbage.most_common(15):
            print(f"{count:>9}  {name}")
        print(f"GC-tracked objects alive: {sum(fresh.values())} in the "
              f"fresh grid, {sum(after.values())} after the run")
        print(f"{'after':>9} {'fresh':>9}  type")
        for name, count in after.most_common(15):
            print(f"{count:>9} {fresh[name]:>9}  {name}")


class PeakSampler:
    """The traced heap's peak over a run and a snapshot near it."""

    #: Dispatched events between two reads of the traced size.
    EVERY = 256
    #: A new snapshot needs this much more than the last one's size.
    GROWTH = 1.10
    SNAPSHOTS = 48

    def __init__(self, depth: int) -> None:
        self.frames = depth + 1
        self.snapshot = None
        self.snapshot_at = 0
        self.taken = 0
        self.events = 0
        self.peak = 0
        self._size = 0
        self._dispatch = None

    def install(self) -> None:
        # Wraps whatever dispatches now (``--dead``'s hook included).
        self._dispatch = dispatch = Environment._dispatch

        def dispatching(env, event):
            self.events += 1
            if not self.events % self.EVERY:
                self.sample()
            dispatch(env, event)

        tracemalloc.start(self.frames)
        Environment._dispatch = dispatching

    def sample(self) -> None:
        size = tracemalloc.get_traced_memory()[0]
        if size >= self._size * self.GROWTH and self.taken < self.SNAPSHOTS:
            # Taking a snapshot allocates nothing traced; filtering or
            # grouping one would, so that waits for the run's end.
            self.snapshot = tracemalloc.take_snapshot()
            self.snapshot_at = self.events
            self.taken += 1
            self._size = size

    def uninstall(self) -> None:
        if self._dispatch is None:
            return
        Environment._dispatch = self._dispatch
        self.sample()
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    def report(self, top: int = 15) -> None:
        snapshot = self.snapshot.filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__),
             tracemalloc.Filter(False, __file__)])
        stats = snapshot.statistics("traceback")
        total = sum(stat.size for stat in stats)
        print(f"Traced peak: {self.peak / 2**20:.1f} MiB over the timed "
              f"run; largest of {self.taken} snapshots: "
              f"{total / 2**20:.1f} MiB at event {self.snapshot_at}")
        print(f"{'KiB':>9} {'blocks':>9} {'share':>7}  site")
        for stat in stats[:top]:
            site = " < ".join(f"{pathlib.Path(frame.filename).name}:"
                              f"{frame.lineno}"
                              for frame in reversed(stat.traceback))
            print(f"{stat.size / 1024:>9.1f} {stat.count:>9} "
                  f"{100.0 * stat.size / total:>5.1f} %  {site}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--depth", type=int, default=2,
                        help="caller frames per site (default 2)")
    parser.add_argument("--charges", action="store_true",
                        help="also print ledger charges per label and "
                             "charges per settle")
    parser.add_argument("--dead", action="store_true",
                        help="also print the events dispatched with no "
                             "callback by call site")
    parser.add_argument("--messages", action="store_true",
                        help="also print the queued message deliveries "
                             "by (kind, subject)")
    parser.add_argument("--heap", action="store_true",
                        help="also print GC passes per generation and the "
                             "objects alive after the run by type")
    parser.add_argument("--host", action="store_true",
                        help="also print the host time from each event's "
                             "pop to the next by the site that queued it")
    parser.add_argument("--peak", action="store_true",
                        help="also print the traced heap peak of the timed "
                             "run and its top allocation sites")
    args = parser.parse_args(argv)
    if args.peak and args.host:
        parser.error("--peak slows the run it traces: not with --host")

    sites: collections.Counter = collections.Counter()
    dead: collections.Counter = collections.Counter()
    messages: collections.Counter = collections.Counter()
    #: Events popped, and host seconds from pop to next pop, by site.
    popped: collections.Counter = collections.Counter()
    host: collections.Counter = collections.Counter()
    #: id of a queued event -> its call site (with --dead or --host).
    queued_at: dict[int, str] = {}
    #: (event type, caller code objects) -> site text.
    names_of: dict[tuple, str] = {}
    clock = time.perf_counter
    #: The event being dispatched: its site, its pop instant, and the
    #: hook time spent since, which its row leaves out.
    current: str | None = None
    popped_at = in_hooks = 0.0
    #: Hook time left out of every row.
    hooks_total = 0.0
    schedule = Environment.schedule
    dispatch = Environment._dispatch

    def counting(env, event, *rest, **kwargs):
        nonlocal in_hooks
        entered = clock()
        frame = sys._getframe(1)
        while (frame.f_code.co_name in _KERNEL
               and "/repro/sim/" in frame.f_code.co_filename):
            frame = frame.f_back
        key = [type(event)]
        while frame is not None and len(key) <= args.depth:
            if frame.f_code is not dispatching.__code__:
                key.append(frame.f_code)
            frame = frame.f_back
        key = tuple(key)
        site = names_of.get(key)
        if site is None:
            site = names_of[key] = " < ".join(
                [type(event).__name__] + [
                    f"{pathlib.Path(code.co_filename).stem}.{code.co_name}"
                    for code in key[1:]])
        sites[site] += 1
        if (args.messages and event.callbacks and getattr(
                event.callbacks[0], "__func__", None) is Network._on_arrival):
            messages[event._value.kind, event._value.subject] += 1
        if args.dead or args.host:
            queued_at[id(event)] = site
        in_hooks += clock() - entered
        schedule(env, event, *rest, **kwargs)

    def close_interval(until: float) -> None:
        nonlocal hooks_total
        if current is not None:
            host[current] += until - popped_at - in_hooks
            hooks_total += in_hooks

    def dispatching(env, event):
        nonlocal current, popped_at, in_hooks
        now = clock()
        close_interval(now)
        current = queued_at.pop(id(event))
        popped[current] += 1
        if not event.callbacks:
            dead[current] += 1
        popped_at = now
        in_hooks = clock() - now
        dispatch(env, event)

    if args.host:
        # A warm-up run, uncounted: the first run in a process is slower
        # (memo tables, first-touch allocations), as the benchmark's is.
        drive(WORKLOADS[args.workload].build(args.seed, args.scale, None))
    charges = ChargeCounter() if args.charges else None
    peak = PeakSampler(args.depth) if args.peak else None
    heap = None
    # Counting starts before the build: a workload may queue events
    # while it is set up (mq_faults starts its crash processes), and
    # the per-site counts must add up to the environment's total.
    Environment.schedule = counting
    if args.dead or args.host:
        Environment._dispatch = dispatching
    try:
        scenario = WORKLOADS[args.workload].build(args.seed, args.scale, None)
        if args.heap:
            fresh = tracked_by_type()
            heap = HeapCounter(lambda: sum(
                1 for session in scenario.scheduler.sessions
                if session.completed_at is not None))
            gc.callbacks.append(heap)
        if charges is not None:
            charges.install()
        if peak is not None:
            peak.install()
        drive(scenario)
        close_interval(clock())
    finally:
        if peak is not None:
            peak.uninstall()
        Environment.schedule = schedule
        Environment._dispatch = dispatch
        if charges is not None:
            charges.uninstall()
        if heap is not None:
            gc.callbacks.remove(heap)
    if heap is not None:
        garbage = cyclic_garbage()
    total = scenario.grid.context.env.events_scheduled
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{total} events queued")
    for site, count in sites.most_common():
        print(f"{count:>9} {100.0 * count / total:5.1f} %  {site}")
    if args.dead:
        print(f"Dispatched with no callback: {sum(dead.values())} of "
              f"{total} events")
        for site, count in dead.most_common():
            print(f"{count:>9} {100.0 * count / total:5.1f} %  {site}")
    if args.messages:
        print(f"Queued deliveries: {sum(messages.values())} of {total} "
              f"events")
        for (kind, subject), count in messages.most_common():
            print(f"{count:>9} {100.0 * count / total:5.1f} %  "
                  f"{kind} {subject or '-'}")
    if args.host:
        loop_ms = sum(host.values()) * 1e3
        print(f"Host time by site: {loop_ms:.3f} ms timed loop, pop to "
              f"next pop ({hooks_total * 1e3:.3f} ms in these hooks left out)")
        print(f"{'us/event':>9} {'total ms':>10} {'share':>7}  site")
        for site, seconds in host.most_common():
            print(f"{seconds * 1e6 / popped[site]:>9.2f} "
                  f"{seconds * 1e3:>10.3f} "
                  f"{100e3 * seconds / loop_ms:>5.1f} %  {site}")
    if charges is not None:
        charges.report()
    if heap is not None:
        heap.report(garbage, fresh, tracked_by_type())
    if peak is not None:
        peak.report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
