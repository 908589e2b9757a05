"""Unit tests for the availability table the wire reads (decision 41)."""

import math

import pytest

from repro.chaos import ChaosConfig, FaultSchedule, MachineCrash, MachineFreeze
from repro.errors import ConfigurationError
from repro.grid import GridContext, Machine
from repro.net.availability import Availability
from repro.services import GridService
from repro.sim import Environment


class TestFrozenIntervals:
    def test_overlapping_freezes_merge(self):
        table = Availability()
        table.freeze(100.0, 50.0)
        table.freeze(120.0, 100.0)
        assert table.frozen == [(100.0, 220.0)]

    def test_a_stall_extended_mid_freeze_is_one_stall(self):
        # As in the mailbox test of tests/services/test_base.py: frozen
        # for 50 ms at 0, then for 70 ms more at 10.
        context = GridContext(seed=0)
        context.add_machine("m2")
        machine = context.machine("m2")
        machine.freeze(50.0)
        context.env.run(until=10.0)
        assert machine.freeze(70.0) == 80.0
        assert machine.availability.frozen == [(0.0, 80.0)]

    def test_touching_freezes_merge_and_disjoint_ones_stay_in_order(self):
        table = Availability()
        table.freeze(500.0, 100.0)
        table.freeze(100.0, 100.0)
        table.freeze(200.0, 50.0)
        assert table.frozen == [(100.0, 250.0), (500.0, 600.0)]

    def test_registering_a_known_stall_again_changes_nothing(self):
        table = Availability()
        table.freeze(800.0, 1300.0)
        table.freeze(800.0, 1300.0)
        assert table.frozen == [(800.0, 2100.0)]

    def test_a_send_at_the_thaw_instant_leaves_at_once(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        sender = GridService(context, "sender", "m1")
        context.machine("m1").freeze(40.0)
        leaves = []
        for when in (39.5, 40.0):
            context.env.run(until=when)
            leaves.append(context.network.leave(sender.name))
        # Frozen means start <= now < end, as ``frozen_until > now`` was.
        assert leaves == [40.0, 40.0]

    def test_a_mailbox_holds_what_arrives_up_to_the_thaw_instant(self):
        table = Availability()
        table.freeze(10.0, 40.0)
        assert [table.holds(when) for when in (9.9, 10.0, 50.0, 50.1)] == [
            False, True, True, False]


class TestDown:
    def test_a_crash_inside_a_freeze_silences_what_the_stall_holds(self):
        table = Availability()
        table.freeze(100.0, 100.0)
        table.fail(150.0)
        # Sent in the stall, it would leave at 200: the host is down.
        assert table.thaw(120.0) == 200.0 >= table.down_at(0.0)
        # Sent before the stall, it leaves at once, before the crash.
        assert table.thaw(90.0) == 90.0 < table.down_at(0.0)

    def test_a_service_created_after_the_failure_lives_on(self):
        table = Availability()
        table.fail(100.0)
        assert table.down_at(0.0) == 100.0
        assert table.down_at(100.0) == 100.0
        assert table.down_at(100.5) == math.inf

    def test_fail_machine_at_registered_mid_run(self):
        # As tests/dqp/test_fault_tolerance.py does after a first query.
        context = GridContext(seed=0)
        context.add_machine("m1")
        context.add_machine("m2")
        sender = GridService(context, "sender", "m1")
        GridService(context, "peer", "m2")
        context.env.run(until=500.0)
        context.fail_machine_at("m1", at_ms=context.env.now + 900.0)
        assert context.availability_of("m1").down == [1400.0]
        assert context.network.leave(sender.name) == 500.0
        context.env.run(until=1400.0)
        assert sender.crashed
        assert context.network.leave(sender.name) is None
        context.env.run(until=1500.0)
        assert context.network.leave(
            GridService(context, "later", "m1").name) == 1500.0

    def test_the_chaos_schedule_is_known_before_it_happens(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        context.install_chaos(ChaosConfig(enabled=True, schedule=(
            FaultSchedule(freezes=(MachineFreeze("m1", 100.0, 50.0),),
                          crashes=(MachineCrash("m1", 400.0),)))))
        table = context.availability_of("m1")
        assert table.frozen == [(100.0, 150.0)]
        assert table.down == [400.0]
        assert context.machine("m1").availability is table

    def test_a_scheduled_fault_cannot_be_uninstalled(self):
        # Its freeze is queued and in the table: clearing the chaos
        # config must not pretend otherwise.
        context = GridContext(seed=0)
        context.add_machine("m1")
        context.install_chaos(ChaosConfig(enabled=True, schedule=(
            FaultSchedule(freezes=(MachineFreeze("m1", 10.0, 50.0),)))))
        with pytest.raises(ConfigurationError):
            context.install_chaos(None)
        with pytest.raises(ConfigurationError):
            context.install_chaos(ChaosConfig.lossy(drop_probability=0.1))

    def test_link_faults_alone_can_be_replaced(self):
        context = GridContext(seed=0)
        context.add_machine("m1")
        context.install_chaos(ChaosConfig.lossy(drop_probability=0.1))
        context.install_chaos(None)
        assert context.chaos is None and context.network.chaos is None


class TestEntryPointsRejectNonFiniteTimes:
    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -5.0])
    def test_machine_freeze(self, duration):
        machine = Machine(Environment(), "m1")
        with pytest.raises(ConfigurationError):
            machine.freeze(duration)
        assert machine.availability.frozen == []

    @pytest.mark.parametrize("at_ms", [math.nan, math.inf, -1.0])
    def test_fail_machine_at(self, at_ms):
        context = GridContext(seed=0)
        context.add_machine("m1")
        with pytest.raises(ConfigurationError):
            context.fail_machine_at("m1", at_ms)
        context.env.run()
        assert context.env.now == 0.0
        assert context.availability_of("m1").down == []

    @pytest.mark.parametrize("at_ms", [math.nan, math.inf, -1.0])
    def test_a_table_freeze_or_failure(self, at_ms):
        table = Availability()
        with pytest.raises(ConfigurationError):
            table.freeze(at_ms, 10.0)
        with pytest.raises(ConfigurationError):
            table.fail(at_ms)
