"""Queues for inter-process communication in the simulation.

:class:`Store` is an unbounded FIFO buffer of arbitrary items ("the
incoming queues within exchanges can fit the complete dataset", §3.2).
Producers call ``store.put_many(items)``, which never blocks;
consumers ``yield store.get()`` and block (in simulated time) while
the store is empty, or ``take`` what is already buffered.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.environment import Environment
from repro.sim.events import Event


class StoreGet(Event):
    """Pending get request; succeeds with the dequeued item."""

    __slots__ = ()


class Store:
    """An unbounded FIFO item buffer.

    Items are handed to getters strictly in arrival order and getters
    are served in request order, so the store is fair and the
    simulation stays deterministic.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: collections.deque[typing.Any] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def waiting_getters(self) -> int:
        """Number of get() requests currently blocked."""
        return len(self._getters)

    def get(self) -> StoreGet:
        """Request the next item; the event's value is the item."""
        request = StoreGet(self.env)
        self._getters.append(request)
        self._settle()
        return request

    def put_many(self, items: typing.Iterable[typing.Any]) -> None:
        """Buffer ``items`` in order, without an event per item; one
        ``_settle`` wakes any waiting getters."""
        self.items.extend(items)
        self._settle()

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
        """Remove and return all buffered items (a consumer aborting)."""
        drained = list(self.items)
        self.items.clear()
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

    def _settle(self) -> None:
        """Hand buffered items to waiting getters, in order.

        A getter only ever waits on an empty store, so this runs where
        items arrive or a getter does — never where items only leave.
        """
        items = self.items
        getters = self._getters
        while getters and items:
            getters.popleft().succeed(items.popleft())
