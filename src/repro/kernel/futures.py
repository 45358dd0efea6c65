"""Futures for the deterministic scheduling kernel.

A :class:`Future` is a one-shot container for a value or an exception that
coroutines can ``await``.  Unlike :mod:`asyncio` futures it has no loop
affinity: resolving a future synchronously invokes its done-callbacks, and the
kernel scheduler uses those callbacks to resume tasks.  This keeps the kernel
tiny, deterministic and independent of wall-clock time.

The future is the kernel's hottest allocation (every ask, sleep, queue item
and task resolution creates or resolves one), so the layout is tuned: the
common single-callback case is stored in a dedicated slot (``_cb0``) and the
overflow list is only allocated for the second callback onwards.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Generic, TypeVar

from ..errors import CancelledError, InvalidStateError

T = TypeVar("T")

_PENDING = "pending"
_RESOLVED = "resolved"
_REJECTED = "rejected"
_CANCELLED = "cancelled"


class Future(Generic[T]):
    """A one-shot, awaitable result container.

    The future starts *pending* and transitions exactly once to *resolved*
    (holding a value), *rejected* (holding an exception), or *cancelled*.
    Done-callbacks added with :meth:`add_done_callback` run synchronously,
    in registration order, at the moment of transition.
    """

    __slots__ = ("_state", "_value", "_exception", "_cb0", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._state = _PENDING
        self._value: T | None = None
        self._exception: BaseException | None = None
        self._cb0: Callable[[Future[T]], None] | None = None
        self._callbacks: list[Callable[[Future[T]], None]] | None = None
        self.name = name

    # -- state inspection ---------------------------------------------------

    def done(self) -> bool:
        """Return True once the future is resolved, rejected or cancelled."""
        return self._state is not _PENDING

    def cancelled(self) -> bool:
        """Return True if the future was cancelled."""
        return self._state is _CANCELLED

    def result(self) -> T:
        """Return the value, or raise the stored exception.

        Raises :class:`InvalidStateError` if the future is still pending and
        :class:`CancelledError` if it was cancelled.
        """
        state = self._state
        if state is _RESOLVED:
            return self._value  # type: ignore[return-value]
        if state is _PENDING:
            raise InvalidStateError(f"future {self.name or id(self)} is not done")
        if state is _CANCELLED:
            raise CancelledError(self.name or "future cancelled")
        raise self._exception

    def exception(self) -> BaseException | None:
        """Return the stored exception (None when resolved with a value)."""
        if self._state is _PENDING:
            raise InvalidStateError(f"future {self.name or id(self)} is not done")
        if self._state is _CANCELLED:
            raise CancelledError(self.name or "future cancelled")
        return self._exception

    # -- state transitions --------------------------------------------------

    def set_result(self, value: T) -> None:
        """Resolve the future with ``value`` and run callbacks."""
        if self._state is not _PENDING:
            raise InvalidStateError(
                f"future {self.name or id(self)} already {self._state}"
            )
        self._state = _RESOLVED
        self._value = value
        cb0 = self._cb0
        if cb0 is not None:
            self._cb0 = None
            cb0(self)
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for callback in callbacks:
                callback(self)

    def set_exception(self, exc: BaseException) -> None:
        """Reject the future with ``exc`` and run callbacks."""
        if isinstance(exc, type):
            exc = exc()
        if self._state is not _PENDING:
            raise InvalidStateError(
                f"future {self.name or id(self)} already {self._state}"
            )
        self._state = _REJECTED
        self._exception = exc
        cb0 = self._cb0
        if cb0 is not None:
            self._cb0 = None
            cb0(self)
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for callback in callbacks:
                callback(self)

    def cancel(self) -> bool:
        """Cancel the future; returns False if it was already done."""
        if self._state is not _PENDING:
            return False
        self._state = _CANCELLED
        cb0 = self._cb0
        if cb0 is not None:
            self._cb0 = None
            cb0(self)
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for callback in callbacks:
                callback(self)
        return True

    # -- callbacks ----------------------------------------------------------

    def add_done_callback(self, callback: Callable[[Future[T]], None]) -> None:
        """Run ``callback(self)`` when done; immediately if already done."""
        if self._state is not _PENDING:
            callback(self)
        elif self._cb0 is None and self._callbacks is None:
            self._cb0 = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def remove_done_callback(self, callback: Callable[[Future[T]], None]) -> int:
        """Drop every pending registration of ``callback``; return the count.

        Lets the registering side detach (e.g. a deadline wrapper whose timer
        fired) so a long-lived future does not pin callbacks — the other half
        of the leak :meth:`Scheduler.timeout` used to have.
        """
        removed = 0
        if self._cb0 is not None and self._cb0 == callback:
            self._cb0 = None
            removed += 1
        if self._callbacks:
            kept = [cb for cb in self._callbacks if not cb == callback]
            removed += len(self._callbacks) - len(kept)
            self._callbacks = kept or None
        return removed

    # -- awaitable protocol ---------------------------------------------------
    #
    # The future is its own await-iterator: ``__await__`` returns ``self``
    # instead of a fresh generator, saving one allocation per await on the
    # hottest path in the kernel.  Protocol walk-through: the coroutine's
    # SEND opcode first calls ``__next__`` — a pending future returns
    # itself (the "yield", handing the future to the driving Task) and a
    # completed one raises ``StopIteration(result)`` immediately; when the
    # task resumes the await, SEND calls ``send(value)`` (or ``__next__``
    # again when the resume value is None — both re-raise the settled
    # result the same way).  There is deliberately no
    # ``throw``: an injected exception (cancellation) then propagates at
    # the await site directly, exactly as it did with a generator.
    # Statelessness makes this safe for multiple concurrent awaiters: every
    # transition depends only on ``_state``.

    def __await__(self) -> Generator[Any, None, T]:
        return self  # type: ignore[return-value]

    def __next__(self) -> "Future[T]":
        if self._state is _PENDING:
            return self
        raise StopIteration(self.result())

    def __iter__(self) -> "Future[T]":
        return self

    def send(self, value: Any) -> None:
        raise StopIteration(self.result())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        detail = self._state
        if self._state is _REJECTED:
            detail = f"rejected({self._exception!r})"
        elif self._state is _RESOLVED:
            detail = f"resolved({self._value!r})"
        return f"<Future {self.name or hex(id(self))} {detail}>"


def completed(value: T, name: str = "") -> Future[T]:
    """Return a future already resolved with ``value``."""
    future: Future[T] = Future(name)
    future._state = _RESOLVED
    future._value = value
    return future


def failed(exc: BaseException, name: str = "") -> Future[Any]:
    """Return a future already rejected with ``exc``."""
    future: Future[Any] = Future(name)
    future.set_exception(exc)
    return future


#: Shared, already-resolved ``None`` future for zero-allocation fast paths
#: (``Event.wait`` when set, ``Lock.acquire`` when free, ...).  Safe to share
#: because a resolved future is immutable: awaiting it returns immediately,
#: ``add_done_callback`` invokes synchronously, and ``cancel()`` is a no-op.
RESOLVED_NONE: Future[None] = completed(None, "resolved")
