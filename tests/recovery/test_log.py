"""Unit and property tests for the recovery log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.errors import RecoveryError
from repro.recovery import Acknowledgement, Checkpoint, RecoveryLog


def rows(start, count):
    return [Row((i,), f"t#{i}") for i in range(start, start + count)]


def block(start, count):
    return Batch.from_rows(rows(start, count))


def columnar_block(start, count):
    return Batch(
        [list(range(start, start + count))],
        [f"t#{i}" for i in range(start, start + count)])


class TestRecoveryLog:
    def test_outstanding_contains_all_unacked(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 5))
        log.seal(1)
        log.append_block(block(5, 3))
        assert log.outstanding().tids() == [
            f"t#{i}" for i in range(8)]
        assert len(log) == 8

    def test_acknowledge_prunes_up_to_checkpoint(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 4))
        log.seal(1)
        log.append_block(block(4, 4))
        log.seal(2)
        freed = log.acknowledge(1)
        assert freed == 4
        assert log.outstanding().tids() == [
            f"t#{i}" for i in range(4, 8)]

    def test_acknowledge_covers_multiple_segments(self):
        log = RecoveryLog("ch")
        for checkpoint in (1, 2, 3):
            log.append_block(block(checkpoint * 10, 2))
            log.seal(checkpoint)
        assert log.acknowledge(2) == 4
        assert len(log) == 2

    def test_acknowledge_unknown_checkpoint_is_noop(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 1))
        assert log.acknowledge(99) == 0  # open segment never pruned
        assert len(log) == 1

    def test_checkpoint_ids_must_increase(self):
        log = RecoveryLog("ch")
        log.seal(5)
        with pytest.raises(RecoveryError):
            log.seal(5)
        with pytest.raises(RecoveryError):
            log.seal(4)

    def test_remove_extracts_moved_tuples(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 6))
        log.seal(1)
        log.append_block(block(6, 2))
        removed = log.remove({"t#1", "t#6"})
        assert sorted(removed.tids()) == ["t#1", "t#6"]
        assert len(log) == 6
        assert "t#1" not in log.outstanding().tids()

    def test_remove_unknown_tids_is_noop(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 1))
        assert len(log.remove({"nope"})) == 0
        assert len(log) == 1

    @pytest.mark.parametrize("make_block", [block, columnar_block])
    def test_remove_on_block_straddling_kept_and_dropped(self, make_block):
        # One logged block holding both moved and kept tids is filtered
        # in place: the kept rows stay one block, in order, and the
        # moved rows come back as one block, however the log was fed.
        log = RecoveryLog("ch")
        log.append_block(make_block(0, 6))
        log.seal(1)
        removed = log.remove({"t#1", "t#2", "t#5", "t#9"})
        assert [(r.tid, r.values) for r in removed.rows] == [
            ("t#1", (1,)), ("t#2", (2,)), ("t#5", (5,))]
        assert log.outstanding().tids() == ["t#0", "t#3", "t#4"]
        assert len(log) == 3
        assert log.appended_total == 6
        assert log.acknowledge(1) == 3

    def test_counters(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 10))
        log.seal(1)
        log.acknowledge(1)
        assert log.appended_total == 10
        assert log.acknowledged_total == 10


class TestRecoveryLogEdgeCases:
    def test_acknowledge_below_earliest_sealed_frees_nothing(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 3))
        log.seal(5)
        assert log.acknowledge(4) == 0
        assert len(log) == 3
        assert log.acknowledged_total == 0

    def test_ack_between_checkpoint_ids_prunes_the_prefix_only(self):
        # Checkpoint ids need not be contiguous (a consumer may ack a
        # checkpoint this producer never sealed); an intermediate id
        # prunes every segment at or below it and nothing above.
        log = RecoveryLog("ch")
        log.append_block(block(0, 2))
        log.seal(1)
        log.append_block(block(2, 2))
        log.seal(3)
        assert log.acknowledge(2) == 2
        assert log.outstanding().tids() == ["t#2", "t#3"]

    def test_repeated_ack_is_idempotent(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 2))
        log.seal(1)
        assert log.acknowledge(1) == 2
        assert log.acknowledge(1) == 0
        assert log.acknowledged_total == 2

    def test_empty_sealed_segments_prune_cleanly(self):
        # A checkpoint can seal an empty segment (no tuples sent since
        # the last marker); pruning it frees nothing and later seals
        # still enforce increasing ids.
        log = RecoveryLog("ch")
        log.seal(1)
        assert len(log) == 0
        log.append_block(block(0, 3))
        log.seal(2)
        assert log.acknowledge(1) == 0
        assert log.acknowledge(2) == 3
        assert len(log) == 0
        with pytest.raises(RecoveryError):
            log.seal(2)

    def test_segment_emptied_by_remove_survives_ack(self):
        log = RecoveryLog("ch")
        log.append_block(block(0, 2))
        log.seal(1)
        removed = log.remove({"t#0", "t#1"})
        assert len(removed) == 2
        assert len(log) == 0
        assert log.acknowledge(1) == 0  # already drained by remove()

    def test_re_extraction_after_partial_acks(self):
        # A retrospective repartition extracts only what is still
        # unacknowledged; tuples re-logged after resending reappear at
        # the tail of the open segment.
        log = RecoveryLog("ch")
        log.append_block(block(0, 4))
        log.seal(1)
        log.append_block(block(4, 4))
        log.seal(2)
        log.acknowledge(1)
        assert log.outstanding().tids() == [
            f"t#{i}" for i in range(4, 8)]
        moved = log.remove({"t#4", "t#5", "t#0"})  # t#0 already acked
        assert sorted(moved.tids()) == ["t#4", "t#5"]
        assert log.outstanding().tids() == ["t#6", "t#7"]
        log.append_block(moved)  # re-logged on the new channel's resend
        assert log.outstanding().tids() == [
            "t#6", "t#7", "t#4", "t#5"]
        assert len(log) == 4


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                          st.booleans()),
                min_size=1, max_size=20))
@settings(max_examples=50)
def test_log_invariant_outstanding_equals_appended_minus_acked(script):
    """Randomised append/seal/ack scripts keep the size invariant."""
    log = RecoveryLog("ch")
    appended = 0
    acked = 0
    checkpoint = 0
    pending_checkpoints = []
    for count, do_ack in script:
        log.append_block(block(appended, count))
        appended += count
        checkpoint += 1
        log.seal(checkpoint)
        pending_checkpoints.append((checkpoint, count))
        if do_ack and pending_checkpoints:
            ack_id, _ = pending_checkpoints[len(pending_checkpoints) // 2]
            freed = log.acknowledge(ack_id)
            acked += freed
            pending_checkpoints = [
                (cid, n) for cid, n in pending_checkpoints if cid > ack_id]
    assert len(log) == appended - acked
    assert len(log.outstanding()) == appended - acked


def test_checkpoint_dataclasses():
    marker = Checkpoint(3, "xp:feed0:0", 150)
    ack = Acknowledgement(3, "xp:feed0:0", "compute:0:0")
    assert marker.checkpoint_id == ack.checkpoint_id
    assert ack.channel_key == "compute:0:0"
