"""Configuration objects for the engine and the adaptivity stack.

Defaults reproduce the paper's "default configuration" (§3.1):
monitoring frequency of one M1 notification per 10 tuples and one M2
per buffer, a 25-event averaging window, and 20% thresholds for both
the detector (``thres_m``) and the diagnoser (``thres_a``).  "All these
values and thresholds are configurable for any component" — as here.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.chaos.config import RetryPolicy
from repro.errors import ConfigurationError

#: Assessment policies (§3.1): A1 ignores communication cost, A2 adds
#: the per-tuple communication cost of the feeding producers.
ASSESSMENT_A1 = "A1"
ASSESSMENT_A2 = "A2"

#: Response policies (§3.1): R1 redistributes the recovery logs
#: (retrospective), R2 only redirects future tuples (prospective).
RESPONSE_R1 = "R1"
RESPONSE_R2 = "R2"

ASSESSMENTS = (ASSESSMENT_A1, ASSESSMENT_A2)
RESPONSES = (RESPONSE_R1, RESPONSE_R2)


@dataclasses.dataclass(frozen=True)
class AdaptivityConfig:
    """Tuning knobs for the monitor/assess/respond pipeline.

    The controller itself is selected by ``policy`` — any name in
    :data:`repro.policy.POLICIES` — with per-policy tunables in
    ``policy_params``.  The paper's four variants may also be spelled
    by their axes: leaving ``policy`` unset resolves it from
    ``assessment``/``response`` (``paper-{assessment}{response}``),
    while naming a paper policy explicitly forces both axes to the
    name's pair (the name is authoritative).
    """

    #: Master switch; False reproduces the static OGSA-DQP system.
    enabled: bool = True
    #: M1 notification every this many tuples produced (0 disables
    #: monitoring entirely, as in the overhead experiments).
    m1_interval: int = 10
    #: Sliding-window length in the MonitoringEventDetector.
    window_size: int = 25
    #: Relative change of the windowed average that triggers a
    #: detector -> diagnoser notification (thresM).
    thres_m: float = 0.20
    #: Relative per-element weight change that triggers a
    #: diagnoser -> responder proposal (thresA).
    thres_a: float = 0.20
    #: Assessment policy: A1 or A2.
    assessment: str = ASSESSMENT_A1
    #: Response policy: R1 (retrospective) or R2 (prospective).
    response: str = RESPONSE_R2
    #: Adaptation-policy name (see :mod:`repro.policy`); None resolves
    #: to the paper variant the assessment/response axes select.
    policy: str | None = None
    #: Per-policy tunables as ``(name, value)`` pairs (kept as a tuple
    #: so the config stays hashable); a mapping is accepted and
    #: normalised at construction.
    policy_params: tuple = ()
    #: The responder skips adaptations once the producers report this
    #: fraction of tuples already distributed (progress estimation [7]).
    progress_cutoff: float = 0.92
    #: Minimum time between accepted adaptations.
    cooldown_ms: float = 500.0
    #: Time the Responder spends estimating progress before deciding:
    #: the SQL-progress-estimation of [7] plus the SOAP round trips of
    #: a 2005 Grid-service stack are not free.
    decision_latency_ms: float = 3300.0
    #: Bucket count for hash-partitioned (stateful) subplans.
    hash_buckets: int = 256

    def __post_init__(self) -> None:
        # Imported lazily: the policy package imports this module's
        # constants at load time, but validation only runs when a
        # config is instantiated, by which point both modules exist.
        from repro.policy import POLICIES
        if isinstance(self.policy_params, typing.Mapping):
            object.__setattr__(self, "policy_params",
                               tuple(sorted(self.policy_params.items())))
        if self.policy is not None:
            if self.policy not in POLICIES:
                raise ConfigurationError(
                    f"unknown adaptation policy: {self.policy!r} "
                    f"(known policies: {', '.join(sorted(POLICIES))})")
            if self.policy.startswith("paper-"):
                # A paper name is authoritative over the axes.
                axes = self.policy.removeprefix("paper-")
                object.__setattr__(self, "assessment", axes[:2])
                object.__setattr__(self, "response", axes[2:])
        for axis, value, valid in (
                ("assessment", self.assessment, ASSESSMENTS),
                ("response", self.response, RESPONSES)):
            if value not in valid:
                raise ConfigurationError(
                    f"unknown {axis} policy: {value!r} (valid {axis}s: "
                    f"{', '.join(valid)}; known policies: "
                    f"{', '.join(sorted(POLICIES))})")
        known = POLICIES[self.policy_name].PARAMS
        unknown = sorted(set(self.params()) - set(known))
        if unknown:
            raise ConfigurationError(
                f"policy {self.policy_name!r} does not accept "
                f"parameter(s) {', '.join(map(repr, unknown))} (known "
                f"parameters: {', '.join(sorted(known)) or 'none'})")
        if self.m1_interval < 0:
            raise ConfigurationError(
                f"m1_interval must be >= 0: {self.m1_interval}")
        if self.window_size < 3:
            raise ConfigurationError(
                f"window_size must be >= 3 for trimmed averaging: "
                f"{self.window_size}")
        if self.thres_m < 0 or self.thres_a < 0:
            raise ConfigurationError("thresholds must be non-negative")
        if not 0 < self.progress_cutoff <= 1:
            raise ConfigurationError(
                f"progress_cutoff must be in (0, 1]: {self.progress_cutoff}")
        if self.hash_buckets < 1:
            raise ConfigurationError(
                f"hash_buckets must be >= 1: {self.hash_buckets}")

    @property
    def retrospective(self) -> bool:
        """True when the response policy recreates state (R1)."""
        return self.response == RESPONSE_R1

    @property
    def policy_name(self) -> str:
        """The :data:`~repro.policy.POLICIES` name this config selects."""
        if self.policy is not None:
            return self.policy
        return f"paper-{self.assessment}{self.response}"

    def params(self) -> dict:
        """``policy_params`` as a plain dict."""
        return dict(self.policy_params)

    def replace(self, **changes) -> "AdaptivityConfig":
        """A copy with some fields changed."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def disabled(cls) -> "AdaptivityConfig":
        """The static (non-adaptive) configuration."""
        return cls(enabled=False)


@dataclasses.dataclass(frozen=True)
class FaultToleranceConfig:
    """Failure detection and recovery parameters.

    The paper's response stage reuses infrastructure "developed mainly
    to attain fault tolerance" [18]; with ``enabled`` the system also
    exercises that original purpose: GQESs heartbeat to the GDQS, and
    a missed deadline triggers re-creation of the lost evaluators on a
    replacement machine with recovery-log replay.
    """

    enabled: bool = False
    heartbeat_interval_ms: float = 500.0
    #: A GQES silent for this long is declared failed.
    failure_timeout_ms: float = 1600.0
    #: A GQES silent for this long (but shorter than the failure
    #: timeout) is declared *suspect*: its clones are quarantined —
    #: weights driven to zero, recovery logs retained — and
    #: reintegrated if heartbeats resume.  ``None`` disables the
    #: suspect state entirely (clones go straight from alive to dead,
    #: exactly the pre-chaos behaviour).
    suspect_timeout_ms: float | None = None
    #: Recovery budget per query: after this many successful machine
    #: recoveries a further failure terminates the query with a typed
    #: :class:`~repro.dqp.gdqs.QueryFailed` outcome instead of
    #: rebuilding again.  ``None`` (the default, and the pre-budget
    #: behaviour) recovers without limit; ``0`` fails on the first
    #: machine death.
    max_recoveries: int | None = None

    def __post_init__(self) -> None:
        # ``nan <= 0`` is False: without the finiteness check a NaN
        # failure timeout would silently disable failure detection.
        for field in ("heartbeat_interval_ms", "failure_timeout_ms"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{field} must be finite: {value}")
        if self.heartbeat_interval_ms <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be positive: "
                f"{self.heartbeat_interval_ms}")
        if self.failure_timeout_ms <= self.heartbeat_interval_ms:
            raise ConfigurationError(
                "failure timeout must exceed the heartbeat interval")
        if self.suspect_timeout_ms is not None:
            if not (self.heartbeat_interval_ms < self.suspect_timeout_ms
                    < self.failure_timeout_ms):
                raise ConfigurationError(
                    "suspect timeout must lie strictly between the "
                    "heartbeat interval and the failure timeout: "
                    f"{self.heartbeat_interval_ms} < "
                    f"{self.suspect_timeout_ms} < "
                    f"{self.failure_timeout_ms} does not hold")
        if self.max_recoveries is not None and self.max_recoveries < 0:
            raise ConfigurationError(
                f"max_recoveries must be >= 0 or None: "
                f"{self.max_recoveries}")


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """Multi-query scheduler parameters (admission and fair sharing).

    The scheduler runs at most ``max_concurrent`` queries at once,
    holds up to ``max_queued`` more in a FIFO admission queue, and
    refuses further submissions with
    :class:`~repro.errors.AdmissionRejected`.  Each running session
    charges one share against every machine its subplans occupy (see
    :mod:`repro.sched.fairshare`); the share ledger steers new
    sessions toward the least-loaded machines.  The contention itself
    comes from co-resident sessions queueing at each machine's FIFO
    CPU, not from the ledger.
    """

    #: Sessions allowed to execute simultaneously.
    max_concurrent: int = 4
    #: Bounded FIFO admission queue behind the running set.
    max_queued: int = 16
    #: Per-query deadline (per attempt): a session executing longer
    #: than this is aborted with a typed ``deadline-exceeded`` failure
    #: and its FairShare capacity released.  ``None`` (default) never
    #: times out and schedules no deadline events — the zero-cost
    #: baseline timeline is untouched.
    query_timeout_ms: float | None = None
    #: Retry policy for failed sessions: ``max_attempts`` bounds the
    #: *total* attempts (so ``max_attempts=3`` allows two retries) and
    #: the capped exponential backoff paces re-submission.  Must be
    #: bounded — an unbounded scheduler retry against a permanently
    #: failing query never terminates.  ``None`` (default) never
    #: retries; deadline timeouts are terminal regardless (retrying a
    #: query that already spent its SLA only doubles the damage).
    retry: RetryPolicy | None = None
    #: Candidate budget for load-aware placement: the scheduler hands
    #: the optimizer only the ``placement_candidates`` least-loaded
    #: machines (plus any breaker-tripped stragglers) instead of the
    #: whole fleet's ordering.  ``None`` (default) emits the full
    #: order; an integer bounds per-placement work for fleet-scale
    #: grids and must cover the largest parallelism degree submitted.
    placement_candidates: int | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1: {self.max_concurrent}")
        if self.max_queued < 0:
            raise ConfigurationError(
                f"max_queued must be >= 0: {self.max_queued}")
        if self.query_timeout_ms is not None and not (
                0 < self.query_timeout_ms < math.inf):
            raise ConfigurationError(
                f"query_timeout_ms must be finite and positive or None: "
                f"{self.query_timeout_ms}")
        if self.retry is not None and self.retry.max_attempts is None:
            raise ConfigurationError(
                "scheduler retry must be bounded (max_attempts set): "
                "an unbounded retry against a permanently failing "
                "query never terminates")
        if (self.placement_candidates is not None
                and self.placement_candidates < 1):
            raise ConfigurationError(
                f"placement_candidates must be >= 1 or None: "
                f"{self.placement_candidates}")

    def replace(self, **changes) -> "SchedulerConfig":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Query-engine execution parameters."""

    #: Morsel size of the batch-granular execution core: operators move
    #: up to this many tuples per ``next_batch`` call, with per-tuple
    #: CPU costs aggregated into one simulator event per batch.  1 =
    #: one-row morsels through the same code (the finest event
    #: granularity; the batch-equivalence property tests compare
    #: against it).
    batch_size: int = 32
    #: Tuples per exchange buffer (one M2 event per buffer sent).
    buffer_size: int = 50
    #: Checkpoint tuples inserted every this many data tuples per
    #: channel (the fault-tolerance granularity of [18]).
    checkpoint_interval: int = 50
    #: Whether recovery logging is active.  Retrospective response
    #: requires it; it is the source of R1's extra overhead.
    logging_enabled: bool = True

    def __post_init__(self) -> None:
        # The three sizes drive range() bounds and chunk arithmetic all
        # over the engine; a float (or bool) slips through a pure
        # ``< 1`` check and fails far from the construction site, so
        # the type is validated here too.
        for field in ("batch_size", "buffer_size", "checkpoint_interval"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{field} must be an integer: {value!r}")
            if value < 1:
                raise ConfigurationError(
                    f"{field} must be >= 1: {value}")

    def replace(self, **changes) -> "EngineConfig":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class CostModel:
    """CPU work constants (ms at speed 1.0) for engine activities.

    Calibrated in :mod:`repro.workloads.scenarios` so the static system
    reproduces the paper's anchor measurements (e.g. a 10x WS
    perturbation degrading Q1 by ~3.5x).
    """

    #: Generic per-tuple scan cost added on top of each Grid Data
    #: Service's own ``access_work_per_tuple`` (usually 0: access costs
    #: are table-specific).
    scan_work_per_tuple: float = 0.0
    #: Operation-call plumbing per invocation (excludes the WS work).
    opcall_overhead_work: float = 0.3
    #: Hash-join build cost per tuple.
    join_build_work: float = 0.35
    #: Hash-join probe cost per tuple (per input tuple, not per match).
    join_probe_work: float = 0.6
    #: Projection / selection costs per tuple.
    project_work: float = 0.02
    select_work: float = 0.03
    #: Result collection cost per tuple at the sink.
    sink_work: float = 0.05
    #: Self-monitoring instrumentation cost per tuple (paper [10]:
    #: "very low overhead").
    instrument_work_per_tuple: float = 0.2
    #: Cost to assemble and emit one raw monitoring event.
    monitor_event_work: float = 0.5
    #: Detector/diagnoser/responder processing cost per notification.
    control_event_work: float = 0.5
    #: Recovery-log append per tuple (R1 logging overhead); the
    #: per-byte part models copying the outgoing data into the log.
    log_append_work: float = 0.1
    log_append_work_per_byte: float = 0.0012
    #: Recovery-log extraction per tuple during retrospective moves.
    log_extract_work: float = 0.3
    #: Checkpoint/acknowledgement handling per checkpoint.
    ack_work: float = 0.6

    def replace(self, **changes) -> "CostModel":
        return dataclasses.replace(self, **changes)
