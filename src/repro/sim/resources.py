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
    """A unit of CPU work and its own completion event.

    Queued on the heap when it starts service, to fire when the work
    completes.  The value is the service time actually consumed
    (useful for self-monitoring operators, which report measured
    costs).
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
    speed of 2.0 halves service times, and no task starts service before
    ``thaw(now)``, the end of the machine's stall ``now`` falls in.
    Utilisation statistics are kept so experiments can report busy/idle
    breakdowns.
    """

    def __init__(self, env: Environment,
                 speed: float | SpeedFunction = 1.0,
                 thaw: typing.Callable[[float], float] | None = None
                 ) -> None:
        self.env = env
        self._thaw = thaw or (lambda now: now)
        #: A constant speed (checked here), or None and a function of
        #: time (checked per task).
        self._speed: float | None = None
        self._speed_fn: SpeedFunction | None = None
        if callable(speed):
            self._speed_fn = speed
        elif speed <= 0:
            raise SimulationError(f"cpu speed must be positive: {speed}")
        else:
            self._speed = float(speed)
        self._pending: collections.deque[CpuTask] = collections.deque()
        #: The task in service; it sits on the heap as its own
        #: completion event.
        self._current: CpuTask | None = None
        #: True while a freeze-wait timeout is armed.
        self._thawing = False
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
        if self._speed is not None:
            return self._speed
        value = self._speed_fn(time)
        if value <= 0:
            raise SimulationError(f"cpu speed function returned {value}")
        return value

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting or in service."""
        return len(self._pending) + (self._current is not None)

    def execute(self, work: float, label: str = "work") -> CpuTask:
        """Submit ``work`` units; the returned event fires on completion.

        On an idle CPU the task starts service in this call, so
        same-instant submissions are served in call order.
        """
        if work < 0:
            raise SimulationError(f"negative cpu work: {work}")
        task = CpuTask(self.env, work, label)
        # Registered first: at completion the CPU books the task and
        # starts the next one before any waiter resumes.
        task.callbacks.append(self._on_task_done)
        self._pending.append(task)
        if self._current is None and not self._thawing:
            self._start_next()
        if self.queue_sampler is not None:
            self.queue_sampler.sample(
                len(self._pending) + (self._current is not None))
        return task

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Permanently close the server gate (machine crash).

        Queued and future tasks never start service and their events
        never fire, so processes waiting on them suspend harmlessly —
        crucially *without* scheduling anything, which keeps
        ``env.run()`` terminating (an infinite stall would park the
        server behind an unbounded timeout event instead).
        The task already in service completes: it is on the heap as
        its own completion event, and fail-stop is modelled at the
        service layer, where the host's endpoints are already
        deactivated.
        """
        self._closed = True

    def _on_thaw(self, _event: Event) -> None:
        """A freeze-wait timeout expired; re-check and keep serving."""
        self._thawing = False
        self._start_next()

    def _on_task_done(self, task: Event) -> None:
        """The in-service task fired: book it, start the next one."""
        self._current = None
        self.busy_time += task._value
        self.tasks_completed += 1
        if self.queue_sampler is not None:
            self.queue_sampler.sample(len(self._pending))
        self._start_next()

    def _start_next(self) -> None:
        """Put the head of the queue in service, if the gate allows.

        The speed is sampled now and the task queued to fire
        ``work / speed`` later — one event per task.  A frozen server
        arms one timeout for the thaw instead; a closed one schedules
        nothing, ever.
        """
        if self._closed or not self._pending:
            return
        now = self.env._now
        thaw = self._thaw(now)
        if thaw > now:
            self._thawing = True
            self.env.timeout(thaw - now).callbacks.append(self._on_thaw)
            return
        task = self._current = self._pending.popleft()
        task.started_at = now
        duration = task.work / self.speed_at(now)
        # succeed(), less its checks: a task starts service only once.
        task._ok = True
        task._value = duration
        self.env.schedule(task, now + duration)

    def utilisation(self, horizon: float | None = None) -> float:
        """Fraction of time busy over ``[0, horizon]`` (default: now)."""
        horizon = self.env.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
