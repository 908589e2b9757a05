"""Unit tests for machines and perturbation models."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    CostFactor,
    GridContext,
    JitterFactor,
    Machine,
    SleepInjection,
    StochasticCostFactor,
)
from repro.sim import Environment


def run_work(machine, label, work):
    env = machine.env

    def body(env):
        elapsed = yield from machine.work(label, work)
        return elapsed

    proc = env.process(body(env))
    env.run()
    return proc.value


def test_unperturbed_work_takes_nominal_time():
    env = Environment()
    machine = Machine(env, "m1")
    assert run_work(machine, "ws-call", 10.0) == pytest.approx(10.0)


def test_cost_factor_multiplies_cpu_work():
    env = Environment()
    machine = Machine(env, "m1")
    machine.add_perturbation(CostFactor(10.0, target="ws-call"))
    assert run_work(machine, "ws-call", 5.0) == pytest.approx(50.0)


def test_cost_factor_only_hits_matching_label():
    env = Environment()
    machine = Machine(env, "m1")
    machine.add_perturbation(CostFactor(10.0, target="ws-call"))
    assert run_work(machine, "join-probe", 5.0) == pytest.approx(5.0)


def test_sleep_injection_adds_blocking_delay():
    env = Environment()
    machine = Machine(env, "m1")
    machine.add_perturbation(SleepInjection(10.0, target="join-probe"))
    assert run_work(machine, "join-probe", 2.0) == pytest.approx(12.0)


def test_sleep_does_not_consume_cpu():
    env = Environment()
    machine = Machine(env, "m1")
    machine.add_perturbation(SleepInjection(10.0, target="join-probe"))
    run_work(machine, "join-probe", 2.0)
    assert machine.cpu.busy_time == pytest.approx(2.0)


def test_perturbation_window_bounds_activity():
    env = Environment()
    machine = Machine(env, "m1")
    machine.add_perturbation(
        CostFactor(10.0, target="ws-call", start=100.0, end=200.0))

    def body(env):
        first = yield from machine.work("ws-call", 1.0)   # t=0: inactive
        yield env.timeout(100.0 - env.now)
        second = yield from machine.work("ws-call", 1.0)  # t=100: active
        yield env.timeout(250.0 - env.now)
        third = yield from machine.work("ws-call", 1.0)   # t=250: expired
        return first, second, third

    proc = env.process(body(env))
    env.run()
    first, second, third = proc.value
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(10.0)
    assert third == pytest.approx(1.0)


def test_stochastic_factor_stays_in_range_and_near_mean():
    rng = random.Random(42)
    perturbation = StochasticCostFactor(20.0, 40.0)
    draws = [perturbation.draw(rng) for _ in range(2000)]
    assert all(20.0 <= value <= 40.0 for value in draws)
    assert sum(draws) / len(draws) == pytest.approx(30.0, rel=0.02)


def test_degenerate_stochastic_range_is_constant():
    rng = random.Random(0)
    perturbation = StochasticCostFactor(30.0, 30.0)
    assert perturbation.draw(rng) == 30.0


def test_jitter_factor_is_small_noise():
    env = Environment()
    machine = Machine(env, "m1", rng=random.Random(7))
    machine.add_perturbation(JitterFactor(0.05))
    elapsed = run_work(machine, "anything", 100.0)
    assert elapsed == pytest.approx(100.0, rel=0.25)
    assert elapsed != pytest.approx(100.0, abs=1e-9)


def test_machine_speed_scales_service_time():
    env = Environment()
    machine = Machine(env, "fast", speed=2.0)
    assert run_work(machine, "x", 10.0) == pytest.approx(5.0)


def test_invalid_perturbations_rejected():
    with pytest.raises(ConfigurationError):
        CostFactor(0.0)
    with pytest.raises(ConfigurationError):
        SleepInjection(-1.0)
    with pytest.raises(ConfigurationError):
        StochasticCostFactor(0.0, 10.0)
    with pytest.raises(ConfigurationError):
        CostFactor(2.0, start=10.0, end=5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("make", [
    CostFactor,
    SleepInjection,
    lambda value: StochasticCostFactor(1.0, value),
    lambda value: StochasticCostFactor(value, value),
    JitterFactor,
], ids=["cost", "sleep", "stochastic-high", "stochastic-range",
        "jitter"])
def test_non_finite_perturbations_rejected(make, value):
    """A NaN charge is never paid and an infinite one never ends."""
    with pytest.raises(ConfigurationError):
        make(value)


def test_grid_context_wires_machines_and_registry():
    context = GridContext(seed=1)
    context.add_machine("m1", speed=1.5)
    context.add_machine("m2", compute=False)
    assert context.machine("m1").cpu.speed_at(0.0) == 1.5
    assert context.registry.compute_machines() == ["m1"]
