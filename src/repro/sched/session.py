"""Per-query sessions managed by the multi-query scheduler.

A :class:`QuerySession` is the scheduler-side identity of one
submitted query: its position in the admission lifecycle
(queued/running/completed), the lifecycle timestamps that separate
queue wait from execution, and — once dispatched — the underlying
:class:`~repro.dqp.gdqs.QueryHandle`.  A session settles once, by
state: the scheduler marks it from its attempts' outcomes, and it has
no completion event of its own (decision 44).
"""

from __future__ import annotations

from repro.config import AdaptivityConfig
from repro.dqp.gdqs import QueryFailed, QueryHandle, QueryResult
from repro.errors import SchedulerError

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETED = "completed"
STATE_RETRYING = "retrying"
STATE_FAILED = "failed"

#: States from which a session never moves again.
TERMINAL_STATES = frozenset({STATE_COMPLETED, STATE_FAILED})


class QuerySession:
    """One query's journey through the scheduler.

    Timestamps follow the :class:`~repro.dqp.gdqs.QueryHandle`
    convention: ``submitted_at`` (entered the admission queue),
    ``started_at`` (deployed onto the grid), ``completed_at`` (result
    collected).  ``outcome`` is the result or typed failure once the
    state is terminal.
    """

    def __init__(self, session_id: str, query_text: str,
                 adaptivity: AdaptivityConfig | None,
                 degree: int | None, submitted_at: float) -> None:
        self.session_id = session_id
        self.query_text = query_text
        self.adaptivity = adaptivity
        self.degree = degree
        self.state = STATE_QUEUED
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.handle: QueryHandle | None = None
        #: Machines this session's subplans occupy (set at dispatch).
        self.machines: tuple[str, ...] = ()
        #: Dispatch attempts so far (1 after the first ``mark_started``).
        self.attempts = 0
        #: Terminal failure outcome, set by ``mark_failed``.
        self.failure: QueryFailed | None = None
        #: When the first attempt failed (drives the MTTR metric).
        self.first_failed_at: float | None = None
        #: Machine that sank the previous attempt: excluded on retry.
        self.blacklist: str | None = None

    # -- lifecycle -------------------------------------------------------

    def mark_started(self, handle: QueryHandle, now: float) -> None:
        if self.state not in (STATE_QUEUED, STATE_RETRYING):
            raise SchedulerError(
                f"{self.session_id}: started twice (state {self.state})")
        self.state = STATE_RUNNING
        if self.started_at is None:
            # Queue wait measures time to *first* dispatch; retries
            # account their delay as execution, not queueing.
            self.started_at = now
        self.attempts += 1
        self.handle = handle
        self.machines = tuple(handle.runtime.plan.machines_used())
        # Queue wait becomes visible on the handle too (satellite:
        # wait vs execution are separate, never folded together).
        handle.submitted_at = self.submitted_at

    def mark_completed(self, now: float) -> None:
        if self.state != STATE_RUNNING:
            raise SchedulerError(
                f"{self.session_id}: completed while {self.state}")
        self.state = STATE_COMPLETED
        self.completed_at = now

    def mark_retrying(self, now: float, failure: QueryFailed) -> None:
        if self.state != STATE_RUNNING:
            raise SchedulerError(
                f"{self.session_id}: retried while {self.state}")
        self.state = STATE_RETRYING
        if self.first_failed_at is None:
            self.first_failed_at = now
        self.blacklist = failure.failed_machine

    def mark_failed(self, now: float, failure: QueryFailed) -> None:
        # QUEUED and RETRYING are legal here too: a session can fail
        # before deployment when the surviving grid cannot place its
        # plan (every candidate machine crashed).
        if self.state in TERMINAL_STATES:
            raise SchedulerError(
                f"{self.session_id}: failed while {self.state}")
        self.state = STATE_FAILED
        self.completed_at = now
        self.failure = failure

    # -- derived metrics -------------------------------------------------

    @property
    def result(self) -> QueryResult | None:
        return self.handle.result if self.handle is not None else None

    @property
    def outcome(self) -> QueryResult | QueryFailed | None:
        """The terminal outcome: a result, a typed failure, or None."""
        if self.state == STATE_FAILED:
            return self.failure
        return self.result

    @property
    def queue_wait_ms(self) -> float | None:
        """Admission-queue wait; None while still queued."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def execution_ms(self) -> float | None:
        """Deployment-to-result time; None until completed."""
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def response_ms(self) -> float | None:
        """Submitter-experienced response: queue wait + execution."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QuerySession {self.session_id} {self.state} "
                f"{self.query_text[:30]!r}>")
