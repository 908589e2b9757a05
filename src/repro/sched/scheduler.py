"""The multi-query scheduler: admission control over a shared grid.

:class:`QueryScheduler` layers concurrent-session management on the
GDQS.  It runs at most ``max_concurrent`` queries at once, parks up to
``max_queued`` more in a FIFO admission queue, and refuses the rest
with :class:`~repro.errors.AdmissionRejected`.  Queries admitted
together genuinely contend for CPU: their morsel bursts queue at the
shared per-machine FIFO servers, and each one's per-query adaptivity
(detector -> diagnoser -> responder) rebalances around the load the
others create.  Running sessions also charge capacity shares on the
machines they occupy through the
:class:`~repro.sched.fairshare.FairShare` policy, which steers new
sessions toward the least-loaded machines and reports capacity
pressure.

Dispatch is fully synchronous: an admissible query is deployed within
``submit`` itself, and the next queued query is deployed from the
completion callback of the finishing one.  The scheduler therefore
adds *zero* simulator events for a single query at concurrency one —
that path is event-for-event the pre-scheduler ``GDQS.submit``.
"""

from __future__ import annotations

import collections
import dataclasses

import typing

from repro.config import SchedulerConfig
from repro.dqp.gdqs import (
    CAUSE_DEADLINE,
    CAUSE_UNPLANNABLE,
    GDQS,
    QueryFailed,
    QueryResult,
)
from repro.errors import AdmissionRejected, PlanningError
from repro.sched.fairshare import FairShare
from repro.sched.health import MachineHealth
from repro.sched.session import (
    QuerySession,
    STATE_COMPLETED,
    TERMINAL_STATES,
    require_done,
)
from repro.sim.events import Event
from repro.telemetry.trace import CATEGORY_SCHEDULER


@dataclasses.dataclass
class SchedulerStatistics:
    """Aggregate view of a scheduler's lifetime so far."""

    admitted: int
    completed: int
    rejected: int
    #: Sessions that ended with a typed failure (includes timeouts).
    failed: int
    #: Retry dispatches performed (attempts beyond each first one).
    retried: int
    #: Sessions aborted by the per-query deadline.
    timed_out: int
    #: Simulated milliseconds burnt by attempts that did not complete.
    wasted_work_ms: float
    peak_queue_depth: int
    #: Per completed session, in completion order.
    queue_waits_ms: list
    execution_ms: list
    response_ms: list
    #: Busy fraction per machine over the scheduler's lifetime.
    machine_utilisation: dict

    @property
    def availability(self) -> float:
        """Completed share of terminally-settled sessions."""
        terminal = self.completed + self.failed
        return self.completed / terminal if terminal else 1.0


class QueryScheduler:
    """Admission control and fair-share dispatch over one GDQS."""

    def __init__(self, gdqs: GDQS,
                 config: SchedulerConfig | None = None) -> None:
        self.gdqs = gdqs
        self.context = gdqs.context
        self.env = self.context.env
        self.config = config or SchedulerConfig()
        self.name = f"sched:{gdqs.machine.name}"
        self.fair_share = FairShare(self.context.registry)
        #: Pure bookkeeping (no simulator events): safe always-on.
        self.health = MachineHealth(self.env)
        self._queue: collections.deque[QuerySession] = collections.deque()
        self._running: dict[str, QuerySession] = {}
        #: Every admitted session, in submission order.
        self.sessions: list[QuerySession] = []
        self.rejected = 0
        self.queries_failed = 0
        self.queries_retried = 0
        self.queries_timed_out = 0
        self.wasted_work_ms = 0.0
        self.peak_queue_depth = 0
        self._session_counter = 0
        self._created_at = self.env.now
        # Baselines and per-machine gauges cover machines as they
        # exist: already-built ones now, lazy ones at materialization
        # (walking the spec list would build the whole fleet up
        # front).  A machine built later never ran before it existed,
        # so its implied baseline is its creation-time busy time.
        self._cpu_baseline = {
            machine.name: machine.cpu.busy_time
            for machine in self.context.registry.materialized_machines()}
        metrics = self.context.metrics
        self._metric_admitted = metrics.counter("sched_admitted")
        self._metric_rejected = metrics.counter("sched_rejected")
        self._metric_completed = metrics.counter("sched_completed")
        self._metric_failed = metrics.counter("sched_failed")
        self._metric_retried = metrics.counter("sched_retried")
        self._metric_timed_out = metrics.counter("sched_timed_out")
        self._metric_queue_wait = metrics.histogram("sched_queue_wait_ms")
        self._metric_mttr = metrics.histogram("sched_mttr_ms")
        self._metric_queue_depth = metrics.series("sched_queue_depth")
        metrics.gauge("sched_availability", fn=self._availability)
        for machine in self.context.registry.materialized_machines():
            self._register_machine_gauge(machine)
        self.context.registry.on_materialize(self._on_materialize)
        # Site-tier health summary: open-breaker count per site,
        # computed from the incrementally-maintained unhealthy set
        # (O(tripped), never O(fleet)).  Callback gauges are read only
        # at snapshot time — the zero-cost metrics invariant.
        registry = self.context.registry
        for site in registry.sites():
            metrics.gauge(
                "sched_site_breakers_open",
                fn=lambda site=site: self.health.site_rollup(
                    registry.site_of).get(site, 0),
                site=site)

    def _register_machine_gauge(self, machine) -> None:
        self.context.metrics.gauge("sched_capacity_pressure",
                                   fn=machine.contention_factor,
                                   machine=machine.name)

    def _on_materialize(self, machine) -> None:
        self._cpu_baseline[machine.name] = machine.cpu.busy_time
        self._register_machine_gauge(machine)

    # -- submission ------------------------------------------------------

    def submit(self, query_text: str, adaptivity=None,
               degree: int | None = None) -> QuerySession:
        """Admit ``query_text``, starting it now or queueing it.

        Raises :class:`AdmissionRejected` when both the running set
        and the admission queue are full; the query never touches the
        grid in that case.
        """
        if (len(self._running) >= self.config.max_concurrent
                and len(self._queue) >= self.config.max_queued):
            self.rejected += 1
            self._metric_rejected.inc()
            self.context.tracer.record(
                CATEGORY_SCHEDULER, self.name, "query rejected",
                running=len(self._running), queued=len(self._queue),
                rejected_total=self.rejected)
            raise AdmissionRejected(
                query_text, running=len(self._running),
                queued=len(self._queue),
                max_concurrent=self.config.max_concurrent,
                max_queued=self.config.max_queued)
        self._session_counter += 1
        session = QuerySession(
            f"s{self._session_counter}", query_text, adaptivity, degree,
            submitted_at=self.env.now)
        self.sessions.append(session)
        self._metric_admitted.inc()
        if self.config.resilient:
            # Resilient sessions get a dedicated completion event up
            # front: the underlying handle's event settles per *attempt*
            # (a retried failure must not wake the submitter), so the
            # session-level event is the only one that means "terminal".
            session.done = self.env.event()
        if len(self._running) < self.config.max_concurrent:
            self._start(session)
        else:
            # Queued sessions need a completion event of their own
            # before the underlying handle exists.
            session.done = self.env.event()
            self._enqueue(session)
            self.context.tracer.record(
                CATEGORY_SCHEDULER, self.name, "query queued",
                session=session.session_id, depth=len(self._queue))
        return session

    def _enqueue(self, session: QuerySession, front: bool = False) -> None:
        (self._queue.appendleft if front else self._queue.append)(session)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._queue))
        self._metric_queue_depth.sample(len(self._queue))

    def _dispatch_queued(self) -> None:
        """Start queued sessions while slots are free."""
        dispatched = False
        while (self._queue
               and len(self._running) < self.config.max_concurrent):
            self._start(self._queue.popleft())
            dispatched = True
        if dispatched:
            self._metric_queue_depth.sample(len(self._queue))

    def _availability(self) -> float:
        completed = sum(1 for session in self.sessions
                        if session.state == STATE_COMPLETED)
        terminal = completed + self.queries_failed
        return completed / terminal if terminal else 1.0

    def _machine_order(self) -> list[str]:
        # The fleet index maintains the least-loaded (site, machine)
        # order incrementally on admit/release deltas, so emitting the
        # preference costs O(candidates), not a per-placement sort of
        # the whole fleet.  With a candidate budget configured, fetch
        # enough extras to survive the breaker partition below pushing
        # tripped machines behind the budget line.
        limit = self.config.placement_candidates
        maybe_open = self.health.unhealthy_names()
        if limit is not None and maybe_open:
            limit += len(maybe_open)
        order = self.fair_share.placement_order(limit=limit)
        if maybe_open:
            # Stable partition: breaker-open machines sort last, the
            # least-loaded order is preserved inside each partition.
            # Only the incrementally-maintained unhealthy set is
            # re-graded — machines outside it are closed by
            # construction — so the no-failure path skips this block
            # entirely and the no-chaos event timeline is untouched.
            tripped_now = {name for name in maybe_open
                           if self.health.is_open(name)}
            if tripped_now:
                healthy = [name for name in order
                           if name not in tripped_now]
                tripped = [name for name in order if name in tripped_now]
                order = healthy + tripped
        return order

    def _start(self, session: QuerySession) -> None:
        exclude = (session.blacklist,) if session.blacklist else ()
        try:
            handle = self.gdqs.submit(session.query_text,
                                      adaptivity=session.adaptivity,
                                      degree=session.degree,
                                      machine_order=self._machine_order(),
                                      exclude_machines=exclude)
        except PlanningError:
            # The surviving grid cannot place this plan (crashed
            # machines shrank the pool below the requested degree):
            # settle the session with a typed failure instead of
            # letting the exception unwind whoever dispatched it.
            self._fail_unplannable(session)
            return
        first_attempt = session.attempts == 0
        session.mark_started(handle, self.env.now)
        if first_attempt:
            self._metric_queue_wait.observe(session.queue_wait_ms)
        self._running[session.session_id] = session
        # Shares are charged in the same simulated instant as the
        # deployment, so a second submission at the same time already
        # sees this session's residency when placing.
        self.fair_share.admit(session)
        self.health.note_placement(session.machines)
        if session.done is None:
            session.done = handle.done
        handle.done.callbacks.append(
            lambda event, s=session: self._on_complete(s, event))
        if self.config.query_timeout_ms is not None:
            self.env.process(
                self._watch_deadline(handle),
                name=f"sched:deadline:{session.session_id}"
                     f":a{session.attempts}")
        self.context.tracer.record(
            CATEGORY_SCHEDULER, self.name, "query started",
            session=session.session_id, query_id=handle.query_id,
            queue_wait_ms=round(session.queue_wait_ms, 1),
            machines=session.machines)

    def _watch_deadline(self, handle) -> typing.Generator:
        """Abort ``handle`` if it outlives the per-attempt deadline.

        The timer fires once per attempt; on a handle that already
        settled (success or failure) the expiry is a harmless no-op.
        """
        yield self.env.timeout(self.config.query_timeout_ms)
        if not handle.done.triggered:
            self.gdqs.abort(handle, CAUSE_DEADLINE)

    def _on_complete(self, session: QuerySession, event: Event) -> None:
        if event.ok and getattr(event.value, "failed", False):
            self._on_failure(session, event.value, event)
            return
        session.mark_completed(self.env.now)
        self._metric_completed.inc()
        for machine in session.machines:
            self.health.record_success(machine)
        if session.first_failed_at is not None:
            # Time from first failure to eventual success: the
            # scheduler-level mean-time-to-repair contribution.
            self._metric_mttr.observe(
                self.env.now - session.first_failed_at)
        self.fair_share.release(session)
        del self._running[session.session_id]
        self.context.tracer.record(
            CATEGORY_SCHEDULER, self.name, "query completed",
            session=session.session_id,
            queue_wait_ms=round(session.queue_wait_ms, 1),
            execution_ms=round(session.execution_ms, 1),
            response_ms=round(session.response_ms, 1))
        self._dispatch_queued()
        if session.done is not event:
            # A formerly-queued session: forward the handle's outcome
            # to the placeholder event its submitter is waiting on.
            if event.ok:
                session.done.succeed(event.value)
            else:
                session.done.fail(event.value)

    # -- failure handling ------------------------------------------------

    def _fail_unplannable(self, session: QuerySession) -> None:
        failure = QueryFailed(
            query_id=session.session_id, cause=CAUSE_UNPLANNABLE,
            failed_machine=None,
            elapsed_ms=self.env.now - session.submitted_at,
            recoveries=0)
        self._mark_failed(session, failure)
        if session.done is None:
            session.done = self.env.event()
        session.done.succeed(failure)

    def _mark_failed(self, session: QuerySession,
                     failure: QueryFailed) -> None:
        """Terminal-failure accounting for one session."""
        session.mark_failed(self.env.now, failure)
        self.queries_failed += 1
        self._metric_failed.inc()
        if failure.cause == CAUSE_DEADLINE:
            self.queries_timed_out += 1
            self._metric_timed_out.inc()
        self.context.tracer.record(
            CATEGORY_SCHEDULER, self.name, "query failed",
            session=session.session_id, cause=failure.cause,
            failed_machine=failure.failed_machine or "",
            attempts=session.attempts)

    def _should_retry(self, session: QuerySession,
                      failure: QueryFailed) -> bool:
        retry = self.config.retry
        if retry is None:
            return False
        if failure.cause == CAUSE_DEADLINE:
            # A deadline abort is terminal by design: the attempt
            # already consumed the submitter's whole time budget, so
            # re-running it cannot meet any useful latency target.
            return False
        return session.attempts < retry.max_attempts

    def _on_failure(self, session: QuerySession, failure: QueryFailed,
                    event: Event) -> None:
        self.wasted_work_ms += failure.elapsed_ms
        if failure.failed_machine:
            self.health.record_failure(failure.failed_machine)
        self.fair_share.release(session)
        del self._running[session.session_id]
        if self._should_retry(session, failure):
            session.mark_retrying(self.env.now, failure)
            self.queries_retried += 1
            self._metric_retried.inc()
            backoff = self.config.retry.backoff_ms(session.attempts)
            self.context.tracer.record(
                CATEGORY_SCHEDULER, self.name, "query retrying",
                session=session.session_id, cause=failure.cause,
                failed_machine=failure.failed_machine or "",
                attempt=session.attempts, backoff_ms=round(backoff, 1))
            self.env.process(
                self._retry_later(session, backoff),
                name=f"sched:retry:{session.session_id}"
                     f":a{session.attempts}")
        else:
            self._mark_failed(session, failure)
        self._dispatch_queued()
        if session.state in TERMINAL_STATES and session.done is not event:
            session.done.succeed(failure)

    def _retry_later(self, session: QuerySession,
                     backoff_ms: float) -> typing.Generator:
        yield self.env.timeout(backoff_ms)
        if len(self._running) < self.config.max_concurrent:
            self._start(session)
        else:
            # All slots refilled during the backoff: rejoin at the
            # front of the queue (the retry has waited longest).
            self._enqueue(session, front=True)

    # -- draining and statistics -----------------------------------------

    def drain(self) -> list[QueryResult | QueryFailed]:
        """Run the simulation until every admitted session settles.

        Every admitted session reaches a terminal state — completed or
        failed — so the returned list (submission order) holds one
        outcome per session: a :class:`QueryResult` or a typed
        :class:`QueryFailed`, never a hole.  Teardown traffic is then
        drained so the grid is quiet.
        """
        while True:
            pending = [session for session in self.sessions
                       if session.state not in TERMINAL_STATES]
            if not pending:
                break
            self.env.run(until=require_done(pending[0]))
        self.env.run()
        return [session.outcome for session in self.sessions]

    def statistics(self) -> SchedulerStatistics:
        """Aggregate admission and utilisation telemetry."""
        completed = [session for session in self.sessions
                     if session.state == STATE_COMPLETED]
        completed.sort(key=lambda session: session.completed_at)
        elapsed = self.env.now - self._created_at
        utilisation = {}
        if elapsed > 0:
            # Materialized machines only: a lazy machine no query ever
            # touched has no CPU history worth reporting (and walking
            # the unbuilt fleet would materialize it just to say 0.0).
            for machine in self.context.registry.materialized_machines():
                busy = (machine.cpu.busy_time
                        - self._cpu_baseline[machine.name])
                utilisation[machine.name] = min(1.0, busy / elapsed)
        return SchedulerStatistics(
            admitted=len(self.sessions),
            completed=len(completed),
            rejected=self.rejected,
            failed=self.queries_failed,
            retried=self.queries_retried,
            timed_out=self.queries_timed_out,
            wasted_work_ms=self.wasted_work_ms,
            peak_queue_depth=self.peak_queue_depth,
            queue_waits_ms=[session.queue_wait_ms
                            for session in completed],
            execution_ms=[session.execution_ms for session in completed],
            response_ms=[session.response_ms for session in completed],
            machine_utilisation=utilisation)
