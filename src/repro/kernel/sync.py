"""Synchronization primitives for kernel coroutines.

All primitives are fair (FIFO) and deterministic.  They are deliberately
minimal: an :class:`Event`, a :class:`Lock`, a counting :class:`Semaphore`,
and an unbounded/bounded :class:`Queue`, which together cover everything the
actor runtime and case studies need.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, TypeVar

from ..errors import MailboxOverflowError
from .futures import _PENDING, RESOLVED_NONE, Future, completed
from .scheduler import Scheduler

T = TypeVar("T")


class Event:
    """A level-triggered flag tasks can wait on."""

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._set = False
        self._waiters: Deque[Future[None]] = deque()

    def is_set(self) -> bool:
        """Return True if the event is currently set."""
        return self._set

    def set(self) -> None:
        """Set the flag and wake every waiter."""
        if self._set:
            return
        self._set = True
        while self._waiters:
            waiter = self._waiters.popleft()
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


class Semaphore:
    """A fair counting semaphore."""

    def __init__(self, scheduler: Scheduler, value: int) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._scheduler = scheduler
        self._value = value
        self._waiters: Deque[Future[None]] = deque()

    @property
    def value(self) -> int:
        """Current number of free permits."""
        return self._value

    def acquire(self) -> Future[None]:
        """Return a future resolving once a permit is granted."""
        if self._value > 0:
            self._value -= 1
            return RESOLVED_NONE
        waiter: Future[None] = Future("sem:wait")
        self._waiters.append(waiter)
        return waiter

    def release(self) -> None:
        """Return a permit, waking the oldest waiter if any."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._value += 1

    async def __aenter__(self) -> "Semaphore":
        await self.acquire()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.release()


class Queue(Generic[T]):
    """A FIFO queue connecting producer and consumer tasks.

    ``maxsize=0`` means unbounded.  A bounded queue raises
    :class:`~repro.errors.MailboxOverflowError` on :meth:`put_nowait` when
    full — actor mailboxes use this to surface overload explicitly instead
    of buffering without bound.
    """

    def __init__(self, scheduler: Scheduler, maxsize: int = 0) -> None:
        self._scheduler = scheduler
        self._maxsize = maxsize
        self._items: Deque[T] = deque()
        self._getters: Deque[Future[T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def maxsize(self) -> int:
        """Capacity limit (0 = unbounded)."""
        return self._maxsize

    def empty(self) -> bool:
        """Return True when no items are buffered."""
        return not self._items

    def full(self) -> bool:
        """Return True when a bounded queue is at capacity."""
        return self._maxsize > 0 and len(self._items) >= self._maxsize

    def put_nowait(self, item: T) -> None:
        """Enqueue ``item``; hand it straight to a waiting getter if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state is _PENDING:
                getter.set_result(item)
                return
        items = self._items
        if self._maxsize > 0 and len(items) >= self._maxsize:
            raise MailboxOverflowError(
                f"queue full (maxsize={self._maxsize}); item dropped by caller"
            )
        items.append(item)

    def get(self) -> Future[T]:
        """Return a future resolving to the next item (FIFO).

        Hot consumers (the activation pump) should prefer
        ``if not queue.empty(): queue.get_nowait()`` — the buffered case
        here still allocates a resolved future per item.
        """
        if self._items:
            return completed(self._items.popleft())
        getter: Future[T] = Future("queue:get")
        self._getters.append(getter)
        return getter

    def get_nowait(self) -> T:
        """Remove and return the head item; raises IndexError when empty."""
        return self._items.popleft()

    def drain_nowait(self) -> list[T]:
        """Remove and return all buffered items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items
