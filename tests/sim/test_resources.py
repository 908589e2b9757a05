"""Unit tests for the FIFO CPU resource."""

import pytest

from repro.errors import SimulationError
from repro.net.availability import Availability
from repro.sim import Cpu, Environment


def test_single_task_takes_work_over_speed():
    env = Environment()
    cpu = Cpu(env, speed=2.0)

    def body(env):
        yield cpu.execute(10.0)
        return env.now

    proc = env.process(body(env))
    env.run()
    assert proc.value == pytest.approx(5.0)


def test_tasks_are_served_fifo():
    env = Environment()
    cpu = Cpu(env)
    finish = {}

    def body(env, name, work):
        yield cpu.execute(work)
        finish[name] = env.now

    env.process(body(env, "first", 3.0))
    env.process(body(env, "second", 2.0))
    env.run()
    assert finish == {"first": 3.0, "second": 5.0}


def test_time_varying_speed_sampled_at_start():
    env = Environment()
    # Speed 1.0 until t=10, then 0.5 (machine perturbed).
    cpu = Cpu(env, speed=lambda t: 1.0 if t < 10 else 0.5)

    def body(env):
        yield env.timeout(10.0)
        start = env.now
        yield cpu.execute(4.0)
        return env.now - start

    proc = env.process(body(env))
    env.run()
    assert proc.value == pytest.approx(8.0)


def test_cpu_tracks_utilisation():
    env = Environment()
    cpu = Cpu(env)

    def body(env):
        yield cpu.execute(4.0)
        yield env.timeout(6.0)

    env.process(body(env))
    env.run()
    assert env.now == pytest.approx(10.0)
    assert cpu.utilisation() == pytest.approx(0.4)
    assert cpu.tasks_completed == 1


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = Cpu(env)

    def body(env):
        yield cpu.execute(0.0)
        return env.now

    proc = env.process(body(env))
    env.run()
    assert proc.value == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = Cpu(env)
    with pytest.raises(SimulationError):
        cpu.execute(-1.0)


def test_invalid_speed_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Cpu(env, speed=0.0)


def test_queue_length_counts_waiting_and_running():
    env = Environment()
    cpu = Cpu(env)

    def submit(env):
        cpu.execute(5.0)
        cpu.execute(5.0)
        cpu.execute(5.0)
        yield env.timeout(1.0)
        return cpu.queue_length

    proc = env.process(submit(env))
    env.run(until=proc)
    assert proc.value == 3


def waiter(env, cpu, work, name, log):
    yield cpu.execute(work)
    log.append((name, env.now))


def test_same_instant_submissions_are_served_in_call_order():
    env = Environment()
    cpu = Cpu(env)
    tasks = [cpu.execute(work) for work in (3.0, 1.0, 2.0)]
    # The first call found the CPU idle and started service in the call.
    assert tasks[0].started_at == 0.0
    assert tasks[1].started_at is None
    env.run()
    assert [task.started_at for task in tasks] == [0.0, 3.0, 4.0]
    assert [task.value for task in tasks] == [3.0, 1.0, 2.0]


def test_next_task_starts_before_the_finished_tasks_waiter_runs():
    env = Environment()
    cpu = Cpu(env)
    first = cpu.execute(2.0)
    second = cpu.execute(5.0)
    seen = []
    first.callbacks.append(lambda _event: seen.append(
        (second.started_at, cpu.queue_length, cpu.tasks_completed)))
    env.run(until=first)
    # At the waiter's turn the CPU has booked `first` and is already
    # serving `second`: a waiter that resubmits queues behind it.
    assert seen == [(2.0, 1, 1)]


def test_close_mid_service_fires_only_the_task_in_service():
    env = Environment()
    cpu = Cpu(env)
    log = []
    for name, work in (("in-service", 4.0), ("queued", 1.0)):
        env.process(waiter(env, cpu, work, name, log))
    env.run(until=1.0)
    cpu.close()
    env.process(waiter(env, cpu, 1.0, "later", log))
    env.run()  # returns: nothing is left on the heap
    assert log == [("in-service", 4.0)]
    assert env.peek() == float("inf")
    assert cpu.tasks_completed == 1 and cpu.busy_time == 4.0
    # The two tasks that will never be served still count as waiting;
    # nothing is "in service" once the last one completed.
    assert cpu.queue_length == 2


def test_close_on_an_idle_cpu_starts_nothing():
    env = Environment()
    cpu = Cpu(env)
    cpu.close()
    task = cpu.execute(1.0)
    env.run()
    assert not task.triggered and cpu.queue_length == 1


def test_freeze_with_a_backlog_resumes_in_order_at_the_thaw():
    env = Environment()
    table = Availability()
    cpu = Cpu(env, thaw=table.thaw)
    log = []
    for name, work in (("a", 2.0), ("b", 1.0), ("c", 1.0)):
        env.process(waiter(env, cpu, work, name, log))
    env.run(until=1.0)
    table.freeze(1.0, 9.0)  # `a` is in service and completes; b, c wait
    env.run(until=5.0)
    table.freeze(5.0, 7.0)  # extended while the thaw is armed
    env.process(waiter(env, cpu, 1.0, "d", log))
    env.run()
    assert log == [("a", 2.0), ("b", 13.0), ("c", 14.0), ("d", 15.0)]


def test_queue_sampler_sees_waiting_plus_in_service():
    env = Environment()
    cpu = Cpu(env)
    samples = []

    class Sampler:
        sample = staticmethod(samples.append)

    cpu.queue_sampler = Sampler
    cpu.execute(1.0)
    cpu.execute(1.0)
    env.run()
    assert samples == [1, 2, 1, 0]
