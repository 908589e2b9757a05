"""Shrunk repro of a known exactly-once violation: Q2 under A1 + R1
loses join outputs when a state replay outlives the Responder's call.

The layered benchmark's ``q2_join_r1`` world loses rows at ``--scale
1.9`` and ``2`` (and hangs between 1.7 and 1.85).  Bisecting data size,
bucket count and adaptation time, the smallest world found that still
loses rows is 1.6x the benchmark (19,200 sequences x 30,080
interactions, 12 ms join sleep on compute-1, 256 buckets) with the
decision latency cut from 3,300 to 1,000 ms: 9 of 30,080 rows.  Bucket
counts 8 / 32 / 128 / 512 and every smaller world tried either return
every row or hang on the same cause.

Followed through with counting wrappers (simulated ms):

* 170,319 — the Responder sends epoch 1's replay phase to the build
  feed (a state channel); its bucket moves copy 9,527 retained rows.
* 176,088 — the copy of build row ``protein_sequences#11801`` is
  placed for compute-1, in a buffer the replay transmits later.
* 180,319 — the Responder's 10 s call times out; the deployment is
  dropped as "unreachable" while the replay keeps transmitting.
* 181,405 -> 188,661 — the next proposal deploys epoch 2.  The build
  feed has nothing new to copy and settles epoch 2, and with it every
  earlier epoch, so the Responder reroutes the probe feed.
* 191,602 — probe row ``protein_interactions#22167`` (same key) is
  routed to compute-1 under epoch 2 and probed at 193,063: no match.
* 193,683 — the copy of ``#11801`` reaches compute-1's hash table,
  620 ms too late; the join output is lost.  Probe rows that the probe
  feed's own R1 plan moved (logged, not yet on the wire, so no discard,
  e.g. ``#22154``) are lost the same way.

``tests/engine/test_redistribution_enum.py`` finds the same overtaking
in its small world (``state-copies``).  Not fixed here.
"""

import collections

import pytest

from repro.config import AdaptivityConfig
from repro.workloads import DemoGrid, DemoGridSpec, Q2, perturb_join_sleep


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a later epoch's replay settles "
                   "while an earlier one's state copies are in flight")
def test_q2_r1_keeps_every_row_when_a_replay_outlives_its_call():
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=19_200,
                                 interactions_cardinality=30_080))
    perturb_join_sleep(grid, sleep_ms=12.0)
    result = grid.run(Q2, AdaptivityConfig(assessment="A1", response="R1",
                                           decision_latency_ms=1000.0))
    static = DemoGrid(grid.spec).run(Q2, AdaptivityConfig.disabled())
    assert (collections.Counter(result.values())
            == collections.Counter(static.values()))
