"""Queues for inter-process communication in the simulation.

:class:`Store` is a FIFO buffer of arbitrary items with optional
capacity.  Producers ``yield store.put(item)``; consumers
``yield store.get()``.  Both sides block (in simulated time) when the
store is full/empty.  The paper's exchange operators use unbounded
stores ("the incoming queues within exchanges can fit the complete
dataset", §3.2) but bounded stores are supported for back-pressure
experiments.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class StorePut(Event):
    """Pending put request; succeeds once the item is buffered."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: typing.Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending get request; succeeds with the dequeued item."""

    __slots__ = ()


class Store:
    """A FIFO item buffer with optional capacity.

    Items are handed to getters strictly in arrival order, and blocked
    putters are admitted in request order, so the store is fair and the
    simulation stays deterministic.
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: collections.deque[typing.Any] = collections.deque()
        self._putters: collections.deque[StorePut] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    @property
    def waiting_getters(self) -> int:
        """Number of get() requests currently blocked."""
        return len(self._getters)

    def put(self, item: typing.Any) -> StorePut:
        """Queue ``item``; the returned event fires once it is stored."""
        request = StorePut(self, item)
        self._putters.append(request)
        self._settle()
        return request

    def get(self) -> StoreGet:
        """Request the next item; the event's value is the item."""
        request = StoreGet(self.env)
        self._getters.append(request)
        self._settle()
        return request

    def put_many(self, items: typing.Iterable[typing.Any]
                 ) -> list[StorePut]:
        """Buffer many items at once, without per-item put events.

        Fire-and-forget equivalent of ``put`` for each item: when no
        putter is blocked and capacity allows, the items are appended
        directly (one ``_settle`` wakes any waiting getters).  When the
        store could block, falls back to individual ``put`` calls so
        bounded stores keep their back-pressure semantics; the blocked
        requests are returned.
        """
        items = list(items)
        if self._putters or len(self.items) + len(items) > self.capacity:
            return [self.put(item) for item in items]
        self.items.extend(items)
        self._settle()
        return []

    def take(self, max_items: int) -> list[typing.Any]:
        """Synchronously dequeue up to ``max_items`` buffered items.

        The batch-path complement of ``get``: no StoreGet event per
        item.  Returns nothing while a blocked getter exists (it has
        priority on the next arrival) — callers then fall back to
        ``get``.
        """
        if max_items < 1 or self._getters:
            return []
        taken: list[typing.Any] = []
        while self.items and len(taken) < max_items:
            taken.append(self.items.popleft())
        if taken:
            self._settle()
        return taken

    def put_back(self, items: typing.Sequence[typing.Any]) -> None:
        """Re-buffer ``items`` at the head of the queue, in order.

        Lets a batch consumer defer items it took but must not process
        yet (e.g. a checkpoint marker behind unprocessed data rows).
        """
        for item in reversed(list(items)):
            self.items.appendleft(item)
        self._settle()

    def drain(self) -> list[typing.Any]:
        """Remove and return all buffered items without waking getters.

        Used by retrospective repartitioning to pull back tuples that
        were queued but not yet consumed.
        """
        drained = list(self.items)
        self.items.clear()
        self._settle()
        return drained

    def remap(self, mapper: typing.Callable[[typing.Any], typing.Any]
              ) -> None:
        """Rewrite buffered items in place: ``mapper(item)`` returns the
        replacement item, or ``None`` to drop it.  Order is preserved
        and no events fire (used to filter rows *inside* composite items
        such as wire blocks)."""
        kept: collections.deque[typing.Any] = collections.deque()
        for item in self.items:
            replacement = mapper(item)
            if replacement is not None:
                kept.append(replacement)
        self.items = kept
        self._settle()

    def _settle(self) -> None:
        """Match buffered items with getters and admit blocked putters.

        Hot path: bursts of puts/gets settle at one timestamp, so the
        loop binds its deques locally and exits without re-scanning
        when a pass makes no progress.
        """
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            while putters and len(items) < capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed(None)
                progressed = True
            while getters and items:
                getters.popleft().succeed(items.popleft())
                progressed = True
