"""Chaos configuration: fault schedules and retry policies.

A :class:`ChaosConfig` describes, declaratively and reproducibly, the
transient misbehaviour a run should suffer — lossy or laggy links,
bounded machine stalls, flaky Web Service calls — together with the
retry policies the defensive layers use against it.  Everything is a
frozen dataclass so a schedule can be shared between the two runs of a
determinism test without risk of mutation.

Two invariants are enforced here rather than discovered at runtime:

* ``control`` messages are never droppable.  The engine's recovery
  protocol treats checkpoint acknowledgements, announcements and
  discards as idempotent-but-mandatory; dropping one (rather than
  delaying or duplicating it) could leave a consumer waiting forever.
* the data-plane retry policies (``send_retry``, ``ws_retry``) are
  unbounded.  A bounded data retry that exhausts its attempts silently
  loses tuples, turning a *transient* fault into silent data loss; the
  capped backoff already bounds the retry *rate*.  Only the
  control-plane ``call_retry`` may give up: its callers (Responder,
  GDQS) already handle :class:`~repro.errors.ServiceError` gracefully.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.errors import ConfigurationError
from repro.net.availability import check_instant, check_stall

#: Message kinds a link fault may affect.  ``control`` is deliberately
#: absent from the default (and rejected for drops, see above).
DEFAULT_FAULT_KINDS = ("data", "notify", "request", "response")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1]: {value}")


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """A fault rule for messages crossing machine-to-machine links.

    ``src``/``dst`` name machines (``"*"`` matches any); the rule
    applies to remote messages whose link endpoints match, whose kind
    is in ``kinds``, and whose send time falls in ``[start_ms,
    end_ms)``.  Each matching message independently draws whether it
    is dropped (transferred but never delivered, as a sender on a LAN
    observes), duplicated (a second copy re-occupies the link FIFO
    behind the first, like a retransmitted datagram), or delayed
    (``delay_ms`` of extra link occupancy, modelling congestion —
    FIFO order is preserved, which the recovery protocol relies on).
    """

    src: str = "*"
    dst: str = "*"
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    delay_ms: float = 0.0
    kinds: tuple = DEFAULT_FAULT_KINDS
    start_ms: float = 0.0
    end_ms: float = math.inf

    def __post_init__(self) -> None:
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("duplicate_probability",
                           self.duplicate_probability)
        _check_probability("delay_probability", self.delay_probability)
        if not (math.isfinite(self.delay_ms) and self.delay_ms >= 0):
            raise ConfigurationError(
                f"delay_ms must be non-negative and finite: {self.delay_ms}")
        if self.drop_probability > 0 and "control" in self.kinds:
            raise ConfigurationError(
                "control messages are not droppable: the recovery "
                "protocol requires their eventual delivery (delaying "
                "or duplicating them is fine)")
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise ConfigurationError(
                f"fault window must satisfy 0 <= start < end: "
                f"[{self.start_ms}, {self.end_ms})")

    def matches(self, src_machine: str, dst_machine: str, kind: str,
                now: float) -> bool:
        return (kind in self.kinds
                and self.src in ("*", src_machine)
                and self.dst in ("*", dst_machine)
                and self.start_ms <= now < self.end_ms)


@dataclasses.dataclass(frozen=True)
class MachineFreeze:
    """A bounded stall of one machine (transient, unlike a crash).

    From ``at_ms`` for ``duration_ms``, the machine's CPU serves no
    new task and its services neither dispatch incoming messages nor
    transmit outgoing ones: a message sent in the window leaves at its
    end, as the machine's availability table says (decision 41).
    Heartbeats therefore go silent for the window — which is exactly
    what drives the GDQS's suspect/quarantine path.
    """

    machine: str
    at_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        check_stall(self.at_ms, self.duration_ms)


@dataclasses.dataclass(frozen=True)
class MachineCrash:
    """A permanent fail-stop of one machine (terminal, unlike a freeze).

    At ``at_ms`` every service hosted on the machine crashes, the CPU
    gate closes forever (queued and future work never serves), and
    heartbeats never resume — so the GDQS's failure detector declares
    the machine dead and either recovers its evaluators elsewhere or
    fails the query with a typed outcome.  Like every other fault the
    crash is part of the seeded schedule: the same seed and schedule
    replay the same crash bit-for-bit.
    """

    machine: str
    at_ms: float

    def __post_init__(self) -> None:
        check_instant(self.at_ms, "crash at_ms")


@dataclasses.dataclass(frozen=True)
class ServiceFault:
    """Transient Web Service failures for matching operations.

    Each invocation of a matching operation inside ``[start_ms,
    end_ms)`` independently fails with ``failure_probability``; the
    operation-call operator retries (re-paying the call's work after a
    backoff) until an attempt succeeds.
    """

    operation: str = "*"
    failure_probability: float = 0.0
    start_ms: float = 0.0
    end_ms: float = math.inf

    def __post_init__(self) -> None:
        _check_probability("failure_probability", self.failure_probability)
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise ConfigurationError(
                f"fault window must satisfy 0 <= start < end: "
                f"[{self.start_ms}, {self.end_ms})")

    def matches(self, operation: str, now: float) -> bool:
        return (self.operation in ("*", operation)
                and self.start_ms <= now < self.end_ms)


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """The full set of faults one run injects."""

    link_faults: tuple = ()
    freezes: tuple = ()
    service_faults: tuple = ()
    crashes: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not (self.link_faults or self.freezes
                    or self.service_faults or self.crashes)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout plus capped exponential backoff with jitter.

    Attempt ``n`` (1-based) that times out after ``timeout_ms`` waits
    ``min(backoff_cap_ms, backoff_base_ms * 2**(n-1))``, scaled by a
    uniform ``1 ± jitter`` factor drawn from the simulation's seeded
    chaos RNG stream, before the next attempt.  ``max_attempts=None``
    retries forever (the data-plane setting).
    """

    timeout_ms: float = 1500.0
    max_attempts: int | None = None
    backoff_base_ms: float = 100.0
    backoff_cap_ms: float = 3000.0
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timeout_ms) and self.timeout_ms > 0):
            raise ConfigurationError(
                f"retry timeout must be finite and > 0: {self.timeout_ms}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1 or None: {self.max_attempts}")
        if not all(math.isfinite(value) and value >= 0
                   for value in (self.backoff_base_ms, self.backoff_cap_ms)):
            raise ConfigurationError(
                "backoff values must be non-negative and finite")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1): {self.jitter}")

    def backoff_ms(self, attempt: int,
                   rng: random.Random | None = None) -> float:
        """Backoff before the attempt after ``attempt`` failures."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1: {attempt}")
        base = min(self.backoff_cap_ms,
                   self.backoff_base_ms * (2.0 ** (attempt - 1)))
        if rng is not None and self.jitter > 0 and base > 0:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base

    def replace(self, **changes) -> "RetryPolicy":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Master switch, fault schedule and defensive retry policies.

    Disabled (the default), the whole subsystem is inert: no injector
    is installed, no RNG stream is created, no extra event is
    scheduled — the event timeline is bit-identical to a build without
    chaos at all (property-tested, like the metrics layer's zero-cost
    invariant).
    """

    enabled: bool = False
    schedule: FaultSchedule = dataclasses.field(default_factory=FaultSchedule)
    #: Exchange data-buffer sends (unbounded: tuples must not be lost).
    send_retry: RetryPolicy = dataclasses.field(
        default_factory=RetryPolicy)
    #: Control-plane service calls (bounded: callers handle failure).
    call_retry: RetryPolicy = dataclasses.field(
        default_factory=lambda: RetryPolicy(timeout_ms=2000.0,
                                            max_attempts=4))
    #: Web Service invocations (unbounded: a row cannot be abandoned).
    ws_retry: RetryPolicy = dataclasses.field(
        default_factory=lambda: RetryPolicy(backoff_base_ms=20.0,
                                            backoff_cap_ms=500.0))

    def __post_init__(self) -> None:
        if self.send_retry.max_attempts is not None:
            raise ConfigurationError(
                "send_retry must be unbounded (max_attempts=None): "
                "giving up on a data buffer silently loses tuples")
        if self.ws_retry.max_attempts is not None:
            raise ConfigurationError(
                "ws_retry must be unbounded (max_attempts=None): "
                "giving up on a WS call silently drops a row")

    def replace(self, **changes) -> "ChaosConfig":
        return dataclasses.replace(self, **changes)

    # -- convenience constructors (CLI / experiments) -------------------

    @classmethod
    def lossy(cls, drop_probability: float = 0.0,
              duplicate_probability: float = 0.0,
              delay_probability: float = 0.0,
              delay_ms: float = 0.0,
              ws_failure_probability: float = 0.0,
              freezes: typing.Sequence[MachineFreeze] = (),
              crashes: typing.Sequence[MachineCrash] = (),
              **changes) -> "ChaosConfig":
        """An enabled config with one grid-wide fault rule per knob."""
        link_faults = ()
        if drop_probability or duplicate_probability or delay_probability:
            link_faults = (LinkFault(
                drop_probability=drop_probability,
                duplicate_probability=duplicate_probability,
                delay_probability=delay_probability,
                delay_ms=delay_ms),)
        service_faults = ()
        if ws_failure_probability:
            service_faults = (ServiceFault(
                failure_probability=ws_failure_probability),)
        return cls(enabled=True,
                   schedule=FaultSchedule(link_faults=link_faults,
                                          freezes=tuple(freezes),
                                          service_faults=service_faults,
                                          crashes=tuple(crashes)),
                   **changes)
