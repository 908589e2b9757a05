"""Regression tests for the PR-8 hot-path bugfix sweep.

Three quadratic hot paths were fixed together with the columnar data
plane; each test here fails against the pre-fix code:

* ``HashJoin``'s held matches drained by re-slicing the remainder on
  every pull (and, before that, with ``list.pop(0)``) — O(n²) in the
  match fan-out of a skewed probe key;
* ``rebalance_outstanding`` popped drained receivers off the head of
  a list — O(n²) in the receiver count;
* ``Histogram`` re-sorted its samples on every quantile query — three
  full sorts per ``summary()`` call.

Micro-benchmark note (1-vCPU CI-class host, N = 200 000): the pending
drain took ~330 s with ``split_at`` per pull and ~0.3 s with the
block cursor; ``rebalance_outstanding`` took ~3.4 s with the shifting
receiver list and ~0.35 s with the cursor.  An absolute wall-clock
limit flakes on a loaded host, so the two drain tests time the same
work at N and 4N in process CPU time with the collector off and bound
the ratio: linear work gives about 4, the quadratic paths about 16.
"""

import gc
import time

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.distribution import rebalance_outstanding
from repro.engine.operators.hashjoin import HashJoin
from repro.telemetry.metrics import Histogram, percentile

#: The smaller of the two sizes each scaling check times.
_SCALE = 20_000
#: Bound on time(4N) / time(N): linear ~4, quadratic ~16.
_MAX_RATIO = 8.0


def _growth(prepare):
    """time(4N) / time(N) of the call ``prepare(size)`` returns, and
    what the 4N call returned."""
    timings = []
    gc.disable()
    try:
        for size in (_SCALE, 4 * _SCALE):
            work = prepare(size)
            started = time.process_time()
            result = work()
            timings.append(time.process_time() - started)
    finally:
        gc.enable()
    return timings[1] / timings[0], result


def _drive(generator):
    """Run a generator-form operator call that never waits."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("operator unexpectedly yielded")


class _StubContext:
    """Just enough EvalContext for paths that never touch the grid."""

    env = None

    def __init__(self):
        from repro.config import EngineConfig
        self.engine_config = EngineConfig()


def _held_block(count):
    """A column-backed block of ``count`` held matches, as a probe
    morsel with that fan-out leaves behind."""
    return Batch([list(range(count))],
                 [("probe", i) for i in range(count)])


class TestHashJoinPendingDrain:
    def test_skewed_fanout_drains_linearly(self):
        """A huge held block drains one row per pull in linear time,
        preserving FIFO order."""
        def prepare(size):
            join = HashJoin(_StubContext(), None, None, 0, 0)
            join._pending_block = _held_block(size)
            return lambda: (join, [_drive(join.next_batch(1))
                                   for _ in range(size)])

        ratio, (join, batches) = _growth(prepare)
        assert join._pending_block is None
        assert all(len(batch) == 1 for batch in batches)
        assert ([batch.tids()[0] for batch in batches]
                == _held_block(4 * _SCALE).tids())
        assert ratio < _MAX_RATIO, f"4x the rows took {ratio:.1f}x the time"

    def test_batch_drain_preserves_fifo_order(self):
        join = HashJoin(_StubContext(), None, None, 0, 0)
        block = _held_block(100)
        join._pending_block = block
        drained = []
        while join._pending_block is not None:
            drained.extend(_drive(join.next_batch(7)).rows)
        assert drained == block.rows


class TestRebalanceOutstandingDrain:
    def test_many_receivers_plan_in_linear_time(self):
        """One overloaded consumer redistributing to N receivers."""
        def prepare(size):
            assignments = {0: [Row((i,), ("src", i)) for i in range(size)]}
            return lambda: rebalance_outstanding(assignments, [1.0] * size)

        ratio, moves = _growth(prepare)
        assert len(moves[0]) == 4 * _SCALE - 1
        assert ratio < _MAX_RATIO, f"4x the receivers took {ratio:.1f}x"

    def test_plan_is_pinned(self):
        """The cursor walk visits receivers in the same order the
        shifting version did, so every (row, target) pair is pinned."""
        rows = [Row((i,), ("src", i)) for i in range(6)]
        moves = rebalance_outstanding({0: rows}, [1.0, 1.0, 1.0])
        # Targets 2/2/2; consumer 0 keeps 2, moves its most recently
        # assigned tuples first, filling receiver 1 then receiver 2.
        assert moves == {0: [(rows[5], 1), (rows[4], 1),
                             (rows[3], 2), (rows[2], 2)]}

    def test_reference_equivalence(self):
        """Identical to a pop(0)-based reference plan on a mixed case."""

        def reference(assignments, weights):
            from repro.engine.distribution import normalise_weights
            weights = normalise_weights(weights)
            count = len(weights)
            outstanding = {c: list(r) for c, r in assignments.items()}
            total = sum(len(r) for r in outstanding.values())
            quotas = [w * total for w in weights]
            targets = [int(q) for q in quotas]
            remainders = sorted(range(count),
                                key=lambda i: quotas[i] - targets[i],
                                reverse=True)
            for i in range(total - sum(targets)):
                targets[remainders[i % count]] += 1
            deficits = [targets[c] - len(outstanding.get(c, []))
                        for c in range(count)]
            moves = {}
            receivers = [c for c in range(count) if deficits[c] > 0]
            for source in range(count):
                excess = -deficits[source]
                if excess <= 0:
                    continue
                for row in outstanding.get(source, [])[::-1][:excess]:
                    while receivers and deficits[receivers[0]] == 0:
                        receivers.pop(0)
                    if not receivers:
                        break
                    target = receivers[0]
                    deficits[target] -= 1
                    moves.setdefault(source, []).append((row, target))
            return moves

        assignments = {
            0: [Row((i,), ("a", i)) for i in range(9)],
            1: [Row((i,), ("b", i)) for i in range(1)],
            3: [Row((i,), ("d", i)) for i in range(5)],
        }
        weights = [0.1, 0.4, 0.3, 0.2]
        assert rebalance_outstanding(assignments, weights) == reference(
            assignments, weights)


class TestHistogramCachedSort:
    def test_quantiles_pinned_to_nearest_rank(self):
        """Cached-sort quantiles match the module's nearest-rank
        reference on every query."""
        histogram = Histogram("latency", {})
        values = [(i * 37) % 101 / 7.0 for i in range(300)]
        for value in values:
            histogram.observe(value)
        for fraction in (0.5, 0.95, 0.99):
            assert histogram.quantile(fraction) == percentile(
                values, fraction)
        summary = histogram.summary()
        assert summary["p50"] == percentile(values, 0.5)
        assert summary["p95"] == percentile(values, 0.95)
        assert summary["p99"] == percentile(values, 0.99)
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)

    def test_summary_sorts_once(self):
        """One sort serves every quantile of a summary() call."""
        histogram = Histogram("latency", {})
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram._sorted is None
        histogram.summary()
        cached = histogram._sorted
        assert cached == [1.0, 2.0, 3.0]
        histogram.quantile(0.5)
        histogram.summary()
        assert histogram._sorted is cached

    def test_observe_invalidates_cache(self):
        histogram = Histogram("latency", {})
        for value in (5.0, 4.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 4.0
        histogram.observe(1.0)
        assert histogram._sorted is None
        assert histogram.quantile(0.5) == 4.0
        assert histogram.quantile(0.99) == 5.0
        assert histogram.summary()["min"] == 1.0
