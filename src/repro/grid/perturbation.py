"""Perturbation models for Grid resources.

The paper creates artificial load in two ways (§3.2): "(i) programming
a computation to iterate over the same function multiple times", which
multiplies the CPU cost of an operation, and "(ii) inserting sleep()
calls", which blocks the evaluating thread without consuming CPU.  The
rapid-change experiments (Fig. 5) additionally vary the cost factor
per incoming tuple "in a normally distributed way, so that the mean
value remains stable".

A perturbation targets operator *labels* (e.g. ``"ws-call"`` or
``"join-probe"``) on one machine and is active over a time window.  It
transforms a requested unit of work into ``(cpu_work, blocking_delay)``.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import random

from repro.errors import ConfigurationError


@dataclasses.dataclass(slots=True)
class WorkEffect:
    """Result of applying perturbations to a unit of work."""

    cpu_work: float
    blocking_delay: float = 0.0


class Perturbation(abc.ABC):
    """Base class for machine perturbations.

    ``target`` is matched against operator labels; ``"*"`` matches all
    work on the machine.  ``start``/``end`` bound the active window in
    simulated time.

    ``deterministic`` declares that :meth:`apply` is a pure function of
    its input effect (no RNG draws), letting batch work charges apply
    the perturbation once per batch instead of once per item.  The base
    default is ``False`` — the safe assumption for subclasses.
    """

    deterministic = False

    def __init__(self, target: str = "*", start: float = 0.0,
                 end: float = float("inf")) -> None:
        if end < start:
            raise ConfigurationError(
                f"perturbation window empty: [{start}, {end})")
        self.target = target
        self.start = start
        self.end = end

    def matches(self, label: str, now: float) -> bool:
        """True when this perturbation applies to ``label`` at ``now``."""
        in_window = self.start <= now < self.end
        return in_window and (self.target == "*" or self.target == label)

    @abc.abstractmethod
    def apply(self, effect: WorkEffect, rng: random.Random) -> WorkEffect:
        """Transform the work effect (may draw from ``rng``)."""


class CostFactor(Perturbation):
    """Multiplies the CPU cost of matching work.

    The paper's "10/20/30 times costlier" Web Service perturbations.
    """

    deterministic = True

    def __init__(self, factor: float, target: str = "*", start: float = 0.0,
                 end: float = float("inf")) -> None:
        super().__init__(target, start, end)
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigurationError(
                f"cost factor must be positive and finite: {factor}")
        self.factor = factor

    def apply(self, effect: WorkEffect, rng: random.Random) -> WorkEffect:
        return WorkEffect(effect.cpu_work * self.factor,
                          effect.blocking_delay)


class SleepInjection(Perturbation):
    """Adds a fixed blocking delay before matching work.

    The paper's ``sleep(10msecs)`` inserted before each join tuple:
    the delay blocks the evaluator thread but leaves the CPU free.
    """

    deterministic = True

    def __init__(self, sleep_ms: float, target: str = "*",
                 start: float = 0.0, end: float = float("inf")) -> None:
        super().__init__(target, start, end)
        if not (math.isfinite(sleep_ms) and sleep_ms >= 0):
            raise ConfigurationError(
                f"sleep must be non-negative and finite: {sleep_ms}")
        self.sleep_ms = sleep_ms

    def apply(self, effect: WorkEffect, rng: random.Random) -> WorkEffect:
        return WorkEffect(effect.cpu_work,
                          effect.blocking_delay + self.sleep_ms)


class StochasticCostFactor(Perturbation):
    """Per-task cost factor drawn from a truncated normal distribution.

    Used for the rapid-change experiments (Fig. 5): the factor for each
    incoming tuple is drawn from N(mean, sigma) clipped to
    ``[low, high]``, with sigma chosen so ~99.7% of the mass lies in
    the range (range/6), keeping the mean stable as in the paper.
    """

    def __init__(self, low: float, high: float, target: str = "*",
                 start: float = 0.0, end: float = float("inf")) -> None:
        super().__init__(target, start, end)
        if not (math.isfinite(low) and math.isfinite(high)
                and 0 < low <= high):
            raise ConfigurationError(
                f"invalid stochastic factor range: [{low}, {high}]")
        self.low = low
        self.high = high
        self.mean = (low + high) / 2.0
        self.sigma = (high - low) / 6.0

    def draw(self, rng: random.Random) -> float:
        """Sample one cost factor."""
        if self.sigma == 0:
            return self.mean
        value = rng.gauss(self.mean, self.sigma)
        return min(self.high, max(self.low, value))

    def apply(self, effect: WorkEffect, rng: random.Random) -> WorkEffect:
        return WorkEffect(effect.cpu_work * self.draw(rng),
                          effect.blocking_delay)


class JitterFactor(Perturbation):
    """Small multiplicative noise modelling real-machine fluctuations.

    The paper notes that "slight fluctuations in performance ... are
    inevitable in a real wide-area environment" and uses them to probe
    spurious adaptations.  Factors are drawn per task from
    N(1, sigma), clipped to stay positive.
    """

    def __init__(self, sigma: float, target: str = "*", start: float = 0.0,
                 end: float = float("inf")) -> None:
        super().__init__(target, start, end)
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ConfigurationError(
                f"jitter sigma must be non-negative and finite: {sigma}")
        self.sigma = sigma

    def apply(self, effect: WorkEffect, rng: random.Random) -> WorkEffect:
        factor = max(0.05, rng.gauss(1.0, self.sigma))
        return WorkEffect(effect.cpu_work * factor, effect.blocking_delay)
