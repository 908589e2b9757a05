"""The chaos injector: runtime fault decisions from seeded streams.

One :class:`ChaosInjector` is installed per :class:`~repro.grid
.container.GridContext` (see ``GridContext.install_chaos``).  The
network consults it for every remote message, the operation-call
operator for every WS invocation, and the retry wrappers for their
backoff jitter.  Every probabilistic decision draws from a dedicated
named stream of the context's :class:`~repro.sim.rand.RandomStreams`
(``chaos:link``, ``chaos:ws``, ``chaos:retry``), so

* the same master seed and :class:`~repro.chaos.config.FaultSchedule`
  reproduce the same faults bit-for-bit, and
* installing chaos never perturbs the draws of any pre-existing
  stream (data generation, perturbation noise, ...).

When no injector is installed (``context.chaos is None``) every hook
reduces to one attribute comparison — no events, no draws, no state.
"""

from __future__ import annotations

import typing

from repro.chaos.config import (ChaosConfig, MachineCrash, MachineFreeze,
                                RetryPolicy)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.container import GridContext


class MessageFault(typing.NamedTuple):
    """The injector's verdict for one remote message."""

    drop: bool
    duplicate: bool
    extra_delay_ms: float


NO_FAULT = MessageFault(False, False, 0.0)

#: (gauge name, ``counters()`` key, labels) of every exported count.
_GAUGES = (
    ("chaos_messages_dropped", "messages_dropped", {}),
    ("chaos_messages_duplicated", "messages_duplicated", {}),
    ("chaos_messages_delayed", "messages_delayed", {}),
    ("chaos_ws_failures_injected", "ws_failures_injected", {}),
    ("chaos_retries", "send_retries", {"kind": "send"}),
    ("chaos_retries", "call_retries", {"kind": "call"}),
    ("chaos_retries", "ws_retries", {"kind": "ws"}),
    ("chaos_machines_frozen", "machines_frozen", {}),
    ("chaos_machines_crashed", "machines_crashed", {}),
)


class ChaosInjector:
    """Draws and counts fault decisions for one simulated grid."""

    def __init__(self, config: ChaosConfig,
                 context: "GridContext") -> None:
        self.config = config
        self.context = context
        self.env = context.env
        self._link_rng = context.random.stream("chaos:link")
        self._ws_rng = context.random.stream("chaos:ws")
        self._retry_rng = context.random.stream("chaos:retry")
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.extra_delay_ms_total = 0.0
        self.ws_failures_injected = 0
        self.send_retries = 0
        self.call_retries = 0
        self.ws_retries = 0
        self.machines_frozen = 0
        self.machines_crashed = 0
        # The registry reads these counts at snapshot time.
        for name, key, labels in _GAUGES:
            context.metrics.gauge(
                name, fn=lambda key=key: self.counters()[key], **labels)

    def start(self) -> None:
        """Enter the fixed faults in the machines' availability tables
        and queue each at its instant."""
        for freeze in self.config.schedule.freezes:
            self.context.availability_of(freeze.machine).freeze(
                freeze.at_ms, freeze.duration_ms)
            self.env.event().succeed(at=freeze.at_ms).callbacks.append(
                lambda _event, freeze=freeze: self._freeze(freeze))
        for crash in self.config.schedule.crashes:
            self.context.availability_of(crash.machine).fail(crash.at_ms)
            self.env.event().succeed(at=crash.at_ms).callbacks.append(
                lambda _event, crash=crash: self._crash(crash))

    def _freeze(self, freeze: MachineFreeze) -> None:
        machine = self.context.registry.machine(freeze.machine)
        frozen_until = machine.freeze(freeze.duration_ms)
        self.machines_frozen += 1
        self.context.tracer.record(
            "chaos", "chaos-injector", "machine frozen",
            machine=freeze.machine, duration_ms=freeze.duration_ms,
            until_ms=round(frozen_until, 3))

    def _crash(self, crash: MachineCrash) -> None:
        victims = self.context.crash_machine(crash.machine)
        self.machines_crashed += 1
        self.context.tracer.record(
            "chaos", "chaos-injector", "machine crashed",
            machine=crash.machine, services_lost=len(victims))

    # -- link faults -----------------------------------------------------

    def message_fault(self, src_machine: str, dst_machine: str,
                      kind: str) -> MessageFault:
        """Fault verdict for one remote message about to transfer.

        Draw order is fixed (drop, duplicate, delay per matching rule
        in schedule order) so a given seed and schedule replay the
        same verdict sequence.  A dropped message is not additionally
        duplicated or delayed.
        """
        now = self.env.now
        drop = duplicate = False
        extra_delay = 0.0
        for fault in self.config.schedule.link_faults:
            if not fault.matches(src_machine, dst_machine, kind, now):
                continue
            if (fault.drop_probability > 0 and not drop
                    and self._link_rng.random() < fault.drop_probability):
                drop = True
            if (fault.duplicate_probability > 0 and not duplicate
                    and self._link_rng.random()
                    < fault.duplicate_probability):
                duplicate = True
            if (fault.delay_probability > 0 and fault.delay_ms > 0
                    and self._link_rng.random() < fault.delay_probability):
                extra_delay += fault.delay_ms
        if drop:
            self.messages_dropped += 1
            return MessageFault(True, False, 0.0)
        if duplicate:
            self.messages_duplicated += 1
        if extra_delay > 0:
            self.messages_delayed += 1
            self.extra_delay_ms_total += extra_delay
        if duplicate or extra_delay > 0:
            return MessageFault(False, duplicate, extra_delay)
        return NO_FAULT

    # -- web service faults ----------------------------------------------

    def ws_call_fails(self, operation_name: str) -> bool:
        """Whether this WS invocation fails transiently."""
        now = self.env.now
        for fault in self.config.schedule.service_faults:
            if (fault.failure_probability > 0
                    and fault.matches(operation_name, now)
                    and self._ws_rng.random()
                    < fault.failure_probability):
                self.ws_failures_injected += 1
                return True
        return False

    # -- retry accounting -------------------------------------------------

    def retry_backoff_ms(self, policy: RetryPolicy, attempt: int) -> float:
        """Jittered backoff for the given failed-attempt count."""
        return policy.backoff_ms(attempt, self._retry_rng)

    def count_retry(self, kind: str) -> None:
        """Count one retry of ``kind`` ('send', 'call' or 'ws')."""
        if kind == "send":
            self.send_retries += 1
        elif kind == "call":
            self.call_retries += 1
        elif kind == "ws":
            self.ws_retries += 1

    def counters(self) -> dict:
        """Snapshot of every chaos counter (for reports and the CLI)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "extra_delay_ms_total": round(self.extra_delay_ms_total, 3),
            "ws_failures_injected": self.ws_failures_injected,
            "send_retries": self.send_retries,
            "call_retries": self.call_retries,
            "ws_retries": self.ws_retries,
            "machines_frozen": self.machines_frozen,
            "machines_crashed": self.machines_crashed,
        }
