"""Deterministic discrete-event scheduler with a virtual clock.

The scheduler is the heart of the library: actors, networks, storage and
benchmarks all run on top of it.  Time is *virtual* — it jumps instantly from
one scheduled event to the next — which makes every run deterministic and
lets a benchmark simulate minutes of cluster time in well under a second of
wall-clock time.

Coroutines are driven directly (``coroutine.send``), awaiting
:class:`~repro.kernel.futures.Future` objects.  There is deliberately no
dependency on :mod:`asyncio`.

Because the simulator's wall-clock is bounded by this loop, the layout is
tuned for dispatch speed.  Pending work lives in two structures, merged in
exact ``(when, sequence)`` order:

- a **ready deque** of immediate callbacks (task resumes, ``_call_soon``) —
  entries are appended with monotonically non-decreasing keys, so the deque
  is always sorted and merging against the heap is a head-to-head compare;
- one **heap** of timers, each wrapped in a cancellable
  :class:`TimerHandle`.  A cancelled timer stays behind as a tombstone the
  loop skips at pop; a cancel that leaves more than 64 tombstones
  outnumbering the live timers compacts the heap.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Awaitable, Callable, Coroutine, Iterable

from ..errors import CancelledError, DeadlockError, SchedulerStoppedError
from ..errors import TimeoutError as KernelTimeoutError
from .futures import _CANCELLED, _PENDING, _RESOLVED, Future

_INF = float("inf")

#: Sentinel meaning "call the event callback with no argument".  Carrying an
#: optional argument in the event entry lets hot paths schedule plain bound
#: methods or module functions instead of allocating a closure per event.
_NO_ARG = object()


def _wake(future: Future[None]) -> None:
    """Timer callback for sleep/at: resolve the future unless pre-empted."""
    if future._state is _PENDING:
        future.set_result(None)


class _SleepFuture(Future):
    """A sleep's future fused with its own timer entry (one allocation).

    Doubles as the :class:`TimerHandle` the heap stores: the dispatch loop
    only touches the handle slots (``when``/``seq``/``_callback``/``_arg``/
    ``_scheduler``), the awaiting side only the inherited future slots, so
    the two roles never collide.
    Sleeps are the kernel's most common timer by far — fusing the pair
    halves their allocation rate.
    """

    __slots__ = ("when", "seq", "_callback", "_arg", "_scheduler")


class _Timeout:
    """Per-:meth:`Scheduler.timeout` state, packed into one slotted object.

    Replaces the two closures (mirror callback + deadline callback) the
    wrapper used to allocate per call: the object itself is the inner
    future's done-callback (``__call__``) and :meth:`deadline` is the timer
    action.  Deadline wrappers are the second most common allocation after
    sleeps, so the saved function objects and cell vars are measurable.
    """

    __slots__ = ("wrapped", "inner", "delay", "handle")

    def __init__(
        self, wrapped: Future[Any], inner: Future[Any], delay: float
    ) -> None:
        self.wrapped = wrapped
        self.inner = inner
        self.delay = delay
        self.handle: TimerHandle | None = None

    def __call__(self, done: Future[Any]) -> None:
        """Inner future settled: mirror it and disarm the deadline timer."""
        wrapped = self.wrapped
        if wrapped._state is not _PENDING:
            return
        handle = self.handle
        if handle is not None:
            handle.cancel()
        state = done._state
        if state is _RESOLVED:
            wrapped.set_result(done._value)
        elif state is _CANCELLED:
            wrapped.set_exception(CancelledError(done.name or "future cancelled"))
        else:
            wrapped.set_exception(done._exception)

    def deadline(self) -> None:
        """Deadline fired first: reject the wrapper and detach from inner."""
        wrapped = self.wrapped
        if wrapped._state is _PENDING:
            self.inner.remove_done_callback(self)
            wrapped.set_exception(
                KernelTimeoutError(
                    f"timed out after {self.delay} virtual seconds"
                )
            )


class TimerHandle:
    """A scheduled timer that can be cancelled in O(1).

    Returned by :meth:`Scheduler.call_at` / :meth:`Scheduler.call_later`.
    Cancelling detaches the callback immediately; the dead entry is dropped
    lazily (heap pop or compaction) without ever running.
    """

    __slots__ = ("when", "seq", "_callback", "_arg", "_scheduler")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., None],
        arg: Any,
        scheduler: "Scheduler",
    ) -> None:
        self.when = when
        self.seq = seq
        self._callback: Callable[..., None] | None = callback
        self._arg = arg
        self._scheduler: Scheduler | None = scheduler

    def cancel(self) -> bool:
        """Detach the callback; returns False if already fired or cancelled."""
        if self._callback is None:
            return False
        self._callback = None
        self._arg = None
        scheduler = self._scheduler
        self._scheduler = None
        if scheduler is None:
            return False
        scheduler._tombstones = tombstones = scheduler._tombstones + 1
        if tombstones > 64 and tombstones * 2 > len(scheduler._events):
            scheduler._compact()
        scheduler.timer_cancels += 1
        recorder = scheduler.recorder
        if recorder is not None:
            recorder.kernel.record("timer-cancel", self.seq, self.when)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled/fired" if self._callback is None else "armed"
        return f"<TimerHandle when={self.when} seq={self.seq} {state}>"


class Task:
    """A scheduled coroutine.

    A task repeatedly steps its coroutine; whenever the coroutine awaits a
    pending future, the task parks until that future completes and then
    resumes via a scheduler event.  The task itself is awaitable: awaiting it
    yields the coroutine's return value (or re-raises its exception).
    """

    __slots__ = (
        "_coro",
        "_scheduler",
        "future",
        "name",
        "_waiting_on",
        "_started",
        "_cancel_requested",
        "_resume_value",
        "_resume_exc",
    )

    def __init__(
        self,
        coro: Coroutine[Any, Any, Any],
        scheduler: "Scheduler",
        name: str = "",
    ) -> None:
        self._coro = coro
        self._scheduler = scheduler
        self.future: Future[Any] = Future(name or getattr(coro, "__name__", "task"))
        self.name = self.future.name
        self._waiting_on: Future[Any] | None = None
        self._started = False
        self._cancel_requested = False
        self._resume_value: Any = None
        self._resume_exc: BaseException | None = None

    def done(self) -> bool:
        """Return True when the task's coroutine has finished."""
        return self.future.done()

    def result(self) -> Any:
        """Return the coroutine's return value (task must be done)."""
        return self.future.result()

    def cancel(self) -> bool:
        """Request cancellation; returns False if the task already finished."""
        if self.done():
            return False
        if not self._started:
            self.future.cancel()
            self._coro.close()
            return True
        # The awaited future may already be done with the resume step still
        # queued; the flag makes that queued step deliver the cancellation
        # instead of resuming the coroutine.
        self._cancel_requested = True
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None and not waiting.done():
            # Detached from the awaited future, so nothing else will resume
            # the task: queue the (payload-less) step that delivers it.
            self._scheduler._call_soon(Task._step, self)
        return True

    # -- driving the coroutine ------------------------------------------------

    def _step(self) -> None:
        """Advance the coroutine with the stashed resume payload.

        The one function that drives the coroutine: the first step (payload
        ``None``), every resume (payload stashed by :meth:`_on_future_done`)
        and cancellation (no payload, ``_cancel_requested`` set) queue it.
        """
        value = self._resume_value
        exc = self._resume_exc
        self._resume_value = None
        self._resume_exc = None
        if self.future._state is not _PENDING:
            return
        if self._cancel_requested and exc is None:
            exc = CancelledError(self.name)
        self._started = True
        self._waiting_on = None
        try:
            if exc is not None:
                yielded = self._coro.throw(exc)
            else:
                yielded = self._coro.send(value)
        except StopIteration as stop:
            self.future.set_result(stop.value)
            return
        except CancelledError:
            if not self.future.done():
                self.future.cancel()
            return
        except BaseException as error:  # noqa: BLE001 - task funnel
            self.future.set_exception(error)
            return
        self._park(yielded)

    def _park(self, yielded: Any) -> None:
        """Wait on what the coroutine yielded: resume when it settles."""
        if type(yielded) is not Future and not isinstance(yielded, Future):
            self._resume_exc = TypeError(
                f"task {self.name!r} awaited a non-kernel awaitable: {yielded!r}"
            )
            self._step()
            return
        self._waiting_on = yielded
        # Inline add_done_callback for the dominant case: a future yielded
        # out of a coroutine is normally still pending (a done future raises
        # StopIteration inside the await instead of yielding) and has no
        # callback registered yet.
        if (
            yielded._state is _PENDING
            and yielded._cb0 is None
            and yielded._callbacks is None
        ):
            yielded._cb0 = self._on_future_done
        else:
            yielded.add_done_callback(self._on_future_done)

    def _on_future_done(self, future: Future[Any]) -> None:
        if self._waiting_on is not future:
            return  # detached by cancellation
        # Stash the resume payload on the task and queue the plain-function
        # step: no closure allocation per suspension.
        state = future._state
        if state is _RESOLVED:
            self._resume_value = future._value
            self._resume_exc = None
        elif state is _CANCELLED:
            self._resume_value = None
            self._resume_exc = CancelledError(future.name or "future cancelled")
        else:
            self._resume_value = None
            self._resume_exc = future._exception
        # _call_soon, inlined: this is the single hottest scheduling site
        # (every task suspension passes through it).
        scheduler = self._scheduler
        if scheduler._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        scheduler._sequence = seq = scheduler._sequence + 1
        scheduler._ready.append((scheduler._now, seq, Task._step, self))

    def __await__(self):
        return self.future.__await__()

    def __del__(self) -> None:
        # A task abandoned before its first step (e.g. the run ended first)
        # holds an un-started coroutine; close it quietly instead of letting
        # garbage collection emit a "never awaited" warning.
        if not self._started:
            try:
                self._coro.close()
            except Exception:  # pragma: no cover - GC-time best effort
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} done={self.done()}>"


class Scheduler:
    """Virtual-time discrete-event loop.

    Events are callables keyed by ``(time, sequence)``; the sequence number
    makes ordering of simultaneous events deterministic (FIFO).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._sequence = 0
        # Timers: (when, seq, TimerHandle) — seq is unique, so the handle
        # itself is never compared.
        self._events: list[tuple[float, int, TimerHandle]] = []
        #: Cancelled handles still sitting in ``_events`` (skipped at pop).
        self._tombstones = 0
        # Immediate callbacks: (when, seq, callback, arg), always sorted
        # because entries are appended with non-decreasing (when, seq).
        self._ready: deque[tuple[float, int, Callable[..., None], Any]] = deque()
        self._stopped = False
        self.events_processed = 0
        #: Cumulative timer cancellations (an observability probe reads this).
        self.timer_cancels = 0
        #: The attached flight recorder, or None (duck-typed — see
        #: repro.obs.recorder; the kernel never imports obs).  Every layer
        #: reaches its ring through this one reference, read at record time;
        #: while None a hook costs one attribute check.
        self.recorder = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Live events currently queued (an observability probe reads this).

        Counts ready callbacks and armed timers; cancelled timers are
        excluded — after the timeout-leak fix this stays flat under
        sustained deadline-wrapped traffic.
        """
        return len(self._ready) + len(self._events) - self._tombstones

    # -- event scheduling -----------------------------------------------------

    def call_at(
        self, when: float, action: Callable[..., None], arg: Any = _NO_ARG
    ) -> TimerHandle:
        """Schedule ``action`` to run at virtual time ``when``.

        Returns a :class:`TimerHandle`; cancelling it detaches the action in
        O(1) without leaving work in the event queue.  When ``arg`` is given
        the action is called as ``action(arg)`` (hot paths use this to avoid
        allocating a closure per timer).
        """
        if self._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        now = self._now
        if when < now:
            when = now
        self._sequence = seq = self._sequence + 1
        handle = TimerHandle.__new__(TimerHandle)
        handle.when = when
        handle.seq = seq
        handle._callback = action
        handle._arg = arg
        handle._scheduler = self
        heapq.heappush(self._events, (when, seq, handle))
        recorder = self.recorder
        if recorder is not None:
            recorder.kernel.record("timer-arm", seq, when)
        return handle

    def call_later(
        self, delay: float, action: Callable[..., None], arg: Any = _NO_ARG
    ) -> TimerHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            delay = 0.0
        return self.call_at(self._now + delay, action, arg)

    def _call_soon(self, action: Callable[..., None], arg: Any) -> None:
        if self._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        self._sequence = seq = self._sequence + 1
        self._ready.append((self._now, seq, action, arg))

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (triggered by cancel churn).

        In place: a running dispatch loop holds this same list object.
        """
        events = self._events
        events[:] = [entry for entry in events if entry[2]._callback is not None]
        heapq.heapify(events)
        self._tombstones = 0

    # -- task & future helpers -------------------------------------------------

    def spawn(self, coro: Coroutine[Any, Any, Any], name: str = "") -> Task:
        """Create a task for ``coro`` and schedule its first step.

        ``Task.__init__`` and ``_call_soon`` are inlined — batch windows,
        coalescers and every benchmark driver spawn tasks, so construction
        cost is on the hot path.
        """
        if self._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        task = Task.__new__(Task)
        task._coro = coro
        task._scheduler = self
        future: Future[Any] = Future.__new__(Future)
        future._state = _PENDING
        future._value = None
        future._exception = None
        future._cb0 = None
        future._callbacks = None
        future.name = name or getattr(coro, "__name__", "task")
        task.future = future
        task.name = future.name
        task._waiting_on = None
        task._started = False
        task._cancel_requested = False
        task._resume_value = None
        task._resume_exc = None
        self._sequence = seq = self._sequence + 1
        self._ready.append((self._now, seq, Task._step, task))
        return task

    def adopt(self, coro: Coroutine[Any, Any, Any], yielded: Any) -> Task:
        """Take over a coroutine its caller stepped and that yielded
        ``yielded``: the task parks on it as its own step would have (Python
        3.12's eager tasks — pay for a task only once you have to wait)."""
        task = Task(coro, self)
        task._started = True
        task._park(yielded)
        return task

    def sleep(self, delay: float) -> Future[None]:
        """Return a future resolving ``delay`` virtual seconds from now.

        The body is :meth:`call_later` + :meth:`call_at` inlined — sleeps
        are the single most common timer, and the two-frame call chain is
        measurable at bench rates.
        """
        if self._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        # One fused future-and-timer object, constructor frame elided.
        future: _SleepFuture = _SleepFuture.__new__(_SleepFuture)
        future._state = _PENDING
        future._value = None
        future._exception = None
        future._cb0 = None
        future._callbacks = None
        future.name = "sleep"
        now = self._now
        when = now + delay if delay > 0.0 else now
        self._sequence = seq = self._sequence + 1
        future.when = when
        future.seq = seq
        future._callback = _wake
        future._arg = future
        future._scheduler = self
        heapq.heappush(self._events, (when, seq, future))
        return future

    def at(self, when: float) -> Future[None]:
        """Return a future resolving at absolute virtual time ``when``.

        Same fused future-and-timer object as :meth:`sleep` — the CPU
        resource mints one of these per charge, so it shares the bill.
        """
        if self._stopped:
            raise SchedulerStoppedError("scheduler has stopped")
        future: _SleepFuture = _SleepFuture.__new__(_SleepFuture)
        future._state = _PENDING
        future._value = None
        future._exception = None
        future._cb0 = None
        future._callbacks = None
        future.name = "at"
        now = self._now
        if when < now:
            when = now
        self._sequence = seq = self._sequence + 1
        future.when = when
        future.seq = seq
        future._callback = _wake
        future._arg = future
        future._scheduler = self
        heapq.heappush(self._events, (when, seq, future))
        return future

    def timeout(self, awaitable: Future[Any] | Task, delay: float) -> Future[Any]:
        """Wrap an awaitable with a deadline ``delay`` seconds from now.

        The returned future mirrors the awaitable if it finishes in time and
        rejects with :class:`~repro.errors.TimeoutError` otherwise.  Neither
        side pins the other: the deadline timer is cancelled the moment the
        inner awaitable completes, and the mirror callback is removed from
        the inner future the moment the deadline fires.
        """
        inner = awaitable.future if isinstance(awaitable, Task) else awaitable
        wrapped: Future[Any] = Future.__new__(Future)
        wrapped._state = _PENDING
        wrapped._value = None
        wrapped._exception = None
        wrapped._cb0 = None
        wrapped._callbacks = None
        wrapped.name = "timeout"
        state = _Timeout(wrapped, inner, delay)
        inner.add_done_callback(state)
        if wrapped._state is _PENDING:
            # Inline call_at: deadline timers are the second most common
            # timer after sleeps and the extra frame is measurable.
            if self._stopped:
                raise SchedulerStoppedError("scheduler has stopped")
            now = self._now
            when = now + delay if delay > 0.0 else now
            self._sequence = seq = self._sequence + 1
            handle = TimerHandle.__new__(TimerHandle)
            handle.when = when
            handle.seq = seq
            handle._callback = _Timeout.deadline
            handle._arg = state
            handle._scheduler = self
            heapq.heappush(self._events, (when, seq, handle))
            recorder = self.recorder
            if recorder is not None:
                recorder.kernel.record("timer-arm", seq, when)
            state.handle = handle
        return wrapped

    # -- running ----------------------------------------------------------------

    def run_until_complete(
        self, coro: Coroutine[Any, Any, Any], name: str = "main"
    ) -> Any:
        """Run the event loop until ``coro`` finishes; return its result."""
        task = self.spawn(coro, name=name)
        self._run(stop_future=task.future)
        if not task.done():
            raise DeadlockError(
                f"no more events but task {task.name!r} is still pending "
                "(a coroutine is awaiting a future nothing will resolve)"
            )
        return task.result()

    def run_for(self, duration: float) -> None:
        """Process all events scheduled within ``duration`` seconds from now."""
        deadline = self._now + duration
        self._run(deadline=deadline)
        if deadline > self._now:
            self._now = deadline

    def drain(self) -> None:
        """Process every remaining event."""
        self._run()

    def _run(
        self, stop_future: Future[Any] | None = None, deadline: float = _INF
    ) -> None:
        """The dispatch loop: merge ready deque and heap in (when, seq) order.

        Ready entries are appended with non-decreasing keys and heap entries
        pop in key order, so comparing the two heads is an exact merge.
        Returns when ``stop_future`` settles, when the next event lies past
        ``deadline``, or when nothing is left to run.
        """
        ready = self._ready
        events = self._events
        pop_ready = ready.popleft
        heappop = heapq.heappop
        # An empty queue reads as +inf below, which must be past the limit.
        limit = min(deadline, sys.float_info.max)
        processed = 0
        try:
            while True:
                if stop_future is not None and stop_future._state is not _PENDING:
                    return
                if ready:
                    head = ready[0]
                    ready_when = head[0]
                    ready_seq = head[1]
                else:
                    ready_when = _INF
                    ready_seq = 0
                if events:
                    head = events[0]
                    heap_when = head[0]
                    heap_seq = head[1]
                else:
                    heap_when = _INF
                    heap_seq = 0
                candidate = ready_when if ready_when < heap_when else heap_when
                if candidate > limit:
                    return
                if ready_when < heap_when or (
                    ready_when == heap_when and ready_seq < heap_seq
                ):
                    when, _seq, callback, arg = pop_ready()
                else:
                    entry = heappop(events)
                    handle = entry[2]
                    callback = handle._callback
                    if callback is None:
                        self._tombstones -= 1
                        continue
                    when = entry[0]
                    arg = handle._arg
                    handle._callback = None
                    handle._arg = None
                    handle._scheduler = None
                    recorder = self.recorder
                    if recorder is not None:
                        recorder.kernel.record("timer-fire", entry[1], when)
                if when > self._now:
                    self._now = when
                processed += 1
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
        finally:
            self.events_processed += processed

    def stop(self) -> None:
        """Discard pending events and refuse further scheduling.

        Queued-but-unstarted tasks are cancelled through :meth:`Task.cancel`
        (closing their coroutines now) instead of being dropped on the floor
        to rely on ``__del__`` GC timing.
        """
        self._stopped = True
        unstarted: list[Task] = []
        for entry in self._ready:
            if entry[2] is Task._step and isinstance(entry[3], Task):
                unstarted.append(entry[3])
        self._ready.clear()
        for entry in self._events:
            handle = entry[2]
            callback = handle._callback
            if callback is None:
                continue
            if callback is Task._step and isinstance(handle._arg, Task):
                unstarted.append(handle._arg)
            handle._callback = None
            handle._arg = None
            handle._scheduler = None
        self._events.clear()
        self._tombstones = 0
        for task in unstarted:
            if not task._started:
                task.cancel()

    # -- structured helpers --------------------------------------------------

    async def gather(self, awaitables: Iterable[Awaitable[Any]]) -> list[Any]:
        """Await all ``awaitables`` concurrently; results in input order.

        Semantics are pinned regardless of input kind (Task, Future or plain
        coroutine — coroutines are spawned in input order):

        - waits for **every** input to settle (no orphaned half-run inputs);
        - on success resolves to the results in input order;
        - on failure raises the exception of the **lowest-index** failed
          input (a cancelled input counts as failed with CancelledError),
          independent of completion order;
        - an empty iterable resolves immediately to ``[]``.
        """
        futures: list[Future[Any]] = []
        for item in awaitables:
            if isinstance(item, Task):
                futures.append(item.future)
            elif isinstance(item, Future):
                futures.append(item)
            else:
                futures.append(self.spawn(item).future)  # type: ignore[arg-type]
        if not futures:
            return []
        all_settled: Future[None] = Future("gather")
        remaining = len(futures)

        def on_settled(_: Future[Any]) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                all_settled.set_result(None)

        for future in futures:
            future.add_done_callback(on_settled)
        await all_settled
        results: list[Any] = []
        first_error: BaseException | None = None
        for future in futures:
            state = future._state
            if state is _RESOLVED:
                results.append(future._value)
                continue
            results.append(None)
            if first_error is None:
                if state is _CANCELLED:
                    first_error = CancelledError(future.name or "future cancelled")
                else:
                    first_error = future._exception
        if first_error is not None:
            raise first_error
        return results


def run(coro: Coroutine[Any, Any, Any]) -> Any:
    """Convenience: run ``coro`` to completion on a fresh scheduler."""
    return Scheduler().run_until_complete(coro)
