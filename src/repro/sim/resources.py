"""CPU resource model.

Each simulated machine owns one :class:`Cpu` per core (the evaluation
machines in the paper are single-CPU Linux boxes, so the default is a
single FIFO server).  Work is expressed in *work units*: milliseconds
of CPU time on a machine of speed 1.0.  The actual service time of a
task is ``work / speed``, with the speed sampled when the task starts
service, so time-varying load profiles take effect as tasks begin.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

SpeedFunction = typing.Callable[[float], float]


class CpuTask(Event):
    """A queued unit of CPU work; fires when the work completes.

    The value is the service time actually consumed (useful for
    self-monitoring operators, which report measured costs).
    """

    __slots__ = ("work", "label", "queued_at", "started_at")

    def __init__(self, env: Environment, work: float, label: str) -> None:
        super().__init__(env)
        self.work = work
        self.label = label
        self.queued_at = env.now
        self.started_at: float | None = None


class Cpu:
    """A FIFO single-server CPU.

    ``speed`` may be a constant or a function of simulation time; a
    speed of 2.0 halves service times.  Utilisation statistics are kept
    so experiments can report busy/idle breakdowns.
    """

    def __init__(self, env: Environment,
                 speed: float | SpeedFunction = 1.0) -> None:
        self.env = env
        if callable(speed):
            self._speed_fn: SpeedFunction = speed
        else:
            if speed <= 0:
                raise SimulationError(f"cpu speed must be positive: {speed}")
            constant = float(speed)
            self._speed_fn = lambda _t: constant
        self._pending: collections.deque[CpuTask] = collections.deque()
        self._serving = False
        #: The task currently in service and its computed duration,
        #: carried between ``_serve_step`` scheduling the service
        #: timeout and ``_on_task_done`` completing the task.
        self._current: CpuTask | None = None
        self._current_duration = 0.0
        self._frozen_until = 0.0
        self._closed = False
        self.busy_time = 0.0
        self.tasks_completed = 0
        #: Optional telemetry hook: an object with ``sample(value)``
        #: called with the queue length at every enqueue and
        #: completion.  Must be a pure recorder (no events, no CPU
        #: charges) so attaching one cannot change the simulation.
        self.queue_sampler = None

    def speed_at(self, time: float) -> float:
        """Effective speed factor at ``time``."""
        value = self._speed_fn(time)
        if value <= 0:
            raise SimulationError(f"cpu speed function returned {value}")
        return value

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting or in service."""
        return len(self._pending) + (1 if self._serving else 0)

    def execute(self, work: float, label: str = "work") -> CpuTask:
        """Submit ``work`` units; the returned event fires on completion."""
        if work < 0:
            raise SimulationError(f"negative cpu work: {work}")
        task = CpuTask(self.env, work, label)
        self._pending.append(task)
        if self.queue_sampler is not None:
            self.queue_sampler.sample(self.queue_length)
        if not self._serving and not self._closed:
            # Claim the server slot synchronously: the server only
            # starts on the next kernel step, and a second execute()
            # call in the meantime must not wake it twice.
            self._serving = True
            wake = Event(self.env)
            wake.callbacks.append(self._on_wake)
            wake.succeed(None)
        return task

    def freeze_until(self, until: float) -> None:
        """Stall the server: no task starts service before ``until``.

        Queued and newly submitted work is retained and drains once the
        freeze expires — a transient stall, not a crash.
        """
        self._frozen_until = max(self._frozen_until, until)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Permanently close the server gate (machine crash).

        Queued and future tasks never start service and their events
        never fire, so processes waiting on them suspend harmlessly —
        crucially *without* scheduling anything, which keeps
        ``env.run()`` terminating (an infinite ``freeze_until`` would
        park the server behind an unbounded timeout event instead).
        The task already in service completes: its timeout is on the
        heap and fail-stop is modelled at the service layer, where the
        host's endpoints are already deactivated.
        """
        self._closed = True

    def _on_wake(self, _event: Event) -> None:
        """Burst start: the wake event scheduled by :meth:`execute` fired."""
        self._serve_step()

    def _on_thaw(self, _event: Event) -> None:
        """A freeze-wait timeout expired; re-check and keep serving."""
        self._serve_step()

    def _on_task_done(self, _event: Event) -> None:
        """The in-service task's timeout fired: complete it, continue."""
        task = self._current
        duration = self._current_duration
        self._current = None
        self.busy_time += duration
        self.tasks_completed += 1
        if self.queue_sampler is not None:
            self.queue_sampler.sample(self.queue_length - 1)
        task.succeed(duration)
        self._serve_step()

    def _serve_step(self) -> None:
        """Advance the FIFO server as far as it can go without waiting.

        Tasks start service in FIFO order, one at a time; a burst
        begins at the dispatch of the wake event scheduled by
        :meth:`execute` and ends when the queue drains.
        """
        env = self.env
        pending = self._pending
        while True:
            if self._closed:
                # Crashed: park forever without scheduling.  _serving
                # stays True so no wake event is ever created again.
                return
            if not pending:
                self._serving = False
                return
            if self._frozen_until > env._now:
                timeout = env.timeout(self._frozen_until - env._now)
                timeout.callbacks.append(self._on_thaw)
                return
            task = pending.popleft()
            task.started_at = env._now
            duration = task.work / self.speed_at(env._now)
            if duration > 0:
                self._current = task
                self._current_duration = duration
                timeout = env.timeout(duration)
                timeout.callbacks.append(self._on_task_done)
                return
            self.busy_time += duration
            self.tasks_completed += 1
            if self.queue_sampler is not None:
                self.queue_sampler.sample(self.queue_length - 1)
            task.succeed(duration)

    def utilisation(self, horizon: float | None = None) -> float:
        """Fraction of time busy over ``[0, horizon]`` (default: now)."""
        horizon = self.env.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
