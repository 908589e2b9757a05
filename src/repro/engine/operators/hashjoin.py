"""Partitioned hash join with repartitionable state.

The build side is drained into an in-memory hash table during
``open``; probing is pipelined.  The join participates in
retrospective (R1) state repartitioning:

* :meth:`_drain_late_build` adds late build tuples that were moved
  *to* this instance (replayed from a producer's retained state), one
  charge, one payment and one tid-idempotent bulk insert per block;
* :meth:`remove_build` drops the state of buckets moved *away*.

During the probe phase the join drains any newly arrived build blocks
from its build consumer before each probe step, so replays take effect
immediately.  Exactly-once results are guaranteed by sink-side
deduplication of the composed (probe tid, build tid) provenance.

Held matches are a FIFO: a probe morsel with a large match fan-out
produces many outputs that drain across several ``next_batch`` calls.
They are held as one block plus an integer cursor; each
pull slices ``max_rows`` rows at the cursor, so draining is linear in
the fan-out however small the pulls are (re-slicing the remainder on
every pull made skewed keys O(n²)).
"""

from __future__ import annotations

import typing

from repro.data.batch import Batch
from repro.data.tuples import Tid
from repro.engine.operators.base import END, EvalContext, Operator

#: Work labels, used by perturbations (the paper's Q2 inserts a
#: sleep() "before the processing of each tuple by the join").
LABEL_BUILD = "join-build"
LABEL_PROBE = "join-probe"


class HashJoin(Operator):
    """Blocking-build, pipelined-probe equi-join."""

    def __init__(self, ctx: EvalContext, build_child: Operator,
                 probe_child: Operator, build_key_position: int,
                 probe_key_position: int) -> None:
        super().__init__(ctx)
        self.build_child = build_child
        self.probe_child = probe_child
        self.build_key_position = build_key_position
        self.probe_key_position = probe_key_position
        #: Build key -> its build tuples, each one tuple of the values
        #: followed by the tid.
        self._table: dict[typing.Any, list[tuple]] = {}
        self._key_of_tid: dict[Tid, typing.Any] = {}
        # Held matches: rows [_pending_cursor:] of the block are still
        # to be served.  Matches are only produced once it is drained.
        self._pending_block: Batch | None = None
        self._pending_cursor = 0
        self.build_count = 0

    # -- state management (R1 support) ------------------------------------

    @property
    def state_size(self) -> int:
        """Number of build tuples currently held as state."""
        return len(self._key_of_tid)

    def remove_build(self, tids: typing.AbstractSet[Tid]) -> int:
        """Drop build tuples whose provenance is in ``tids``."""
        removed = 0
        for tid in tids:
            key = self._key_of_tid.pop(tid, None)
            if key is None:
                continue
            bucket = self._table.get(key, [])
            self._table[key] = [entry for entry in bucket
                                if entry[-1] != tid]
            if not self._table[key]:
                del self._table[key]
            removed += 1
        return removed

    # -- evaluation --------------------------------------------------------

    def open(self) -> typing.Generator:
        yield from self.build_child.open()
        yield from self.probe_child.open()
        # Blocking build phase: drain the build channel completely
        # before probing, so every probe sees the full (local) state.
        max_rows = self.ctx.engine_config.batch_size
        while True:
            batch = yield from self.build_child.next_batch(max_rows)
            if batch is END:
                break
            self.ctx.charge(LABEL_BUILD, self.ctx.cost.join_build_work,
                            len(batch))
            yield from self.ctx.settle()
            self._insert_build_batch(batch)

    def _insert_build_batch(self, batch: Batch) -> None:
        """Bulk tid-idempotent insert (build-key grouping, hoisted)."""
        key_of_tid = self._key_of_tid
        table_setdefault = self._table.setdefault
        key_position = self.build_key_position
        inserted = 0
        for entry in zip(*batch.columns(), batch.tids()):
            tid = entry[-1]
            if tid in key_of_tid:
                continue
            key = entry[key_position]
            table_setdefault(key, []).append(entry)
            key_of_tid[tid] = key
            inserted += 1
        self.build_count += inserted

    def _drain_late_build(self) -> typing.Generator:
        """Absorb build tuples replayed after the build phase ended.

        One charge and one payment per replayed block, then its bulk
        insert: the debt stays bounded by a block, and the state is in
        the table before the next probe is matched.
        """
        while True:
            block = yield from self.build_child.try_next()
            if block is None:
                return
            self.ctx.charge(LABEL_BUILD, self.ctx.cost.join_build_work,
                            len(block))
            yield from self.ctx.settle()
            self._insert_build_batch(block)

    def next_batch(self, max_rows: int) -> typing.Generator:
        while True:
            block = self._pending_block
            if block is not None:
                # Ship held matches before pumping more input: the probe
                # channel may acknowledge a checkpoint while being
                # pumped, which asserts these outputs reached the next
                # stage already.
                start = self._pending_cursor
                self._pending_cursor = stop = start + max_rows
                if stop >= len(block):
                    self._pending_block = None
                    if start == 0:
                        return block
                return block.slice(start, stop)
            yield from self._drain_late_build()
            probe = yield from self.probe_child.next_batch(max_rows)
            if probe is END:
                return END
            self.ctx.charge(LABEL_PROBE, self.ctx.cost.join_probe_work,
                            len(probe))
            # Re-drain before matching: fetching and working the probe
            # batch takes simulated time, during which a retrospective
            # move may have replayed build tuples these probes must see
            # (they were enqueued before the probes were sent).
            yield from self._drain_late_build()
            self._match_columnar(probe)

    def _match_columnar(self, probe: Batch) -> None:
        """Vectorized probe: matches land in one pending block.

        Each output tuple is (probe values ++ build values) with the
        composed ``(probe_tid, build_tid)`` provenance.  The probe's key
        column is walked by position; the matched probe positions are
        then gathered column by column and the matched build entries
        transposed into columns (their last one the build tids), so no
        per-tuple object is built for the probe.
        """
        table_get = self._table.get
        positions: list[int] = []
        matches: list[tuple] = []
        for position, key in enumerate(probe.column(self.probe_key_position)):
            bucket = table_get(key)
            if bucket:
                positions.extend([position] * len(bucket))
                matches.extend(bucket)
        if matches:
            build = [list(column) for column in zip(*matches)]
            probe_tids = probe.tids()
            tids = [(probe_tids[p], build_tid)
                    for p, build_tid in zip(positions, build.pop())]
            self._pending_block = Batch(
                [[column[p] for p in positions]
                 for column in probe.columns()] + build, tids)
            self._pending_cursor = 0

    def close(self) -> typing.Generator:
        yield from self.build_child.close()
        yield from self.probe_child.close()
        self._table.clear()
        self._key_of_tid.clear()
        self._pending_block = None
