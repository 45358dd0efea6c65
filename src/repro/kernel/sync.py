"""Synchronization primitives for kernel coroutines.

All primitives are fair (FIFO) and deterministic.  They are deliberately
minimal: an :class:`Event`, a :class:`Lock` and an unbounded :class:`Queue`,
which together cover everything the actor runtime and case studies need.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, TypeVar

from .futures import _PENDING, RESOLVED_NONE, Future, completed
from .scheduler import Scheduler

T = TypeVar("T")


class Event:
    """A level-triggered flag tasks can wait on.

    Every activation owns one (``closed``) and most are never waited on,
    so the waiter deque is allocated by the first :meth:`wait`.
    """

    __slots__ = ("_scheduler", "_set", "_waiters")

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._set = False
        self._waiters: Deque[Future[None]] | None = None

    def is_set(self) -> bool:
        """Return True if the event is currently set."""
        return self._set

    def set(self) -> None:
        """Set the flag and wake every waiter."""
        if self._set:
            return
        self._set = True
        waiters = self._waiters
        if waiters is None:
            return
        self._waiters = None
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    def clear(self) -> None:
        """Reset the flag; subsequent waits will block."""
        self._set = False

    def wait(self) -> Future[None]:
        """Return a future that resolves once the flag is set."""
        if self._set:
            return RESOLVED_NONE
        waiter: Future[None] = Future("event:wait")
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append(waiter)
        return waiter


class Lock:
    """A fair mutual-exclusion lock usable as an async context manager."""

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._locked = False
        self._waiters: Deque[Future[None]] = deque()

    @property
    def locked(self) -> bool:
        """Return True while some task holds the lock."""
        return self._locked

    def acquire(self) -> Future[None]:
        """Return a future resolving once the lock is held by the caller."""
        if not self._locked:
            self._locked = True
            return RESOLVED_NONE
        waiter: Future[None] = Future("lock:wait")
        self._waiters.append(waiter)
        return waiter

    def release(self) -> None:
        """Release the lock, handing it to the oldest waiter if any."""
        if not self._locked:
            raise RuntimeError("release of an unlocked Lock")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                # Hand over ownership directly: the lock stays held.
                waiter.set_result(None)
                return
        self._locked = False

    async def __aenter__(self) -> "Lock":
        await self.acquire()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.release()


class Queue(Generic[T]):
    """An unbounded FIFO queue connecting producer and consumer tasks."""

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._items: Deque[T] = deque()
        self._getters: Deque[Future[T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        """Return True when no items are buffered."""
        return not self._items

    def put_nowait(self, item: T) -> None:
        """Enqueue ``item``; hand it straight to a waiting getter if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state is _PENDING:
                getter.set_result(item)
                return
        self._items.append(item)

    def get(self) -> Future[T]:
        """Return a future resolving to the next item (FIFO).

        Hot consumers should prefer ``if not queue.empty(): get_nowait()``
        — the buffered case here still allocates a resolved future per item.
        """
        if self._items:
            return completed(self._items.popleft())
        getter: Future[T] = Future("queue:get")
        self._getters.append(getter)
        return getter

    def get_nowait(self) -> T:
        """Remove and return the head item; raises IndexError when empty."""
        return self._items.popleft()
