"""Regression tests for the kernel raw-speed overhaul.

Covers the timeout-timer leak (both directions of detachment), clean task
teardown on ``stop()``, pinned ``gather`` semantics, and dispatch-order
edge cases around cancellation, timer ties and heap compaction.
"""

import gc
import inspect
import warnings

import pytest
from repro.errors import SchedulerStoppedError
from repro.errors import TimeoutError as KernelTimeoutError
from repro.kernel.futures import Future
from repro.kernel.scheduler import Scheduler


# -- S1: the timeout-timer leak ------------------------------------------------


def test_timeout_leak_pending_events_returns_to_baseline():
    """Sustained deadline-wrapped asks must not accumulate dead timers.

    Before the fix, every ``timeout()`` whose inner future resolved in time
    left its deadline timer armed: ``pending_events`` grew by one per call
    and the dead timers burned an event each when they eventually fired.
    Now the timer is cancelled the moment the inner future resolves, so the
    queue depth after each batch returns to the pre-batch baseline — and the
    cancelled timers may not pile up as tombstones either: after any cancel,
    compaction has kept the physical heap within 2 x live + 65 entries.
    """
    sched = Scheduler()
    peaks = []

    async def churn(batches: int, per_batch: int) -> None:
        baseline = sched.pending_events
        for _ in range(batches):
            for _ in range(per_batch):
                inner: Future[int] = Future()
                wrapped = sched.timeout(inner, 1000.0)
                inner.set_result(1)
                assert await wrapped == 1
                live = len(sched._events) - sched._tombstones
                assert len(sched._events) <= 2 * live + 65, "tombstones piled up"
            await sched.sleep(0.01)
            peaks.append(sched.pending_events - baseline)

    sched.run_until_complete(churn(batches=20, per_batch=50))
    # The queue never retains the resolved batches' deadline timers: after
    # every batch we are back to the baseline (the sleep itself resolved).
    assert max(peaks) <= 1, f"pending events grew: {peaks}"


def test_timeout_deadline_detaches_mirror_callback_from_inner():
    """Once the deadline fires, the wrapper must drop off the inner future.

    The other half of the leak: a long-lived inner future used to pin one
    mirror callback per expired deadline forever.
    """
    sched = Scheduler()
    inner: Future[int] = Future("long-lived")

    async def expire_many(count: int) -> None:
        for _ in range(count):
            with pytest.raises(KernelTimeoutError):
                await sched.timeout(inner, 0.001)

    sched.run_until_complete(expire_many(25))
    assert inner._cb0 is None
    assert not inner._callbacks
    inner.set_result(7)  # must not touch any expired wrapper


def test_timeout_cancelled_timers_never_fire_as_events():
    """Dead deadline timers must not inflate ``events_processed``."""
    sched = Scheduler()

    async def run() -> None:
        for _ in range(100):
            inner: Future[None] = Future()
            wrapped = sched.timeout(inner, 50.0)
            inner.set_result(None)
            await wrapped

    sched.run_until_complete(run())
    before = sched.events_processed
    sched.run_for(100.0)  # past every armed deadline
    assert sched.events_processed == before


# -- S2: stop() routes queued first steps through Task cleanup -----------------


def test_stop_closes_queued_first_steps_without_runtime_warning():
    """Tasks spawned but never stepped are closed by ``stop()``, not GC."""
    sched = Scheduler()

    async def never_runs() -> None:  # pragma: no cover - must not start
        raise AssertionError("stopped scheduler ran a queued task")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tasks = [sched.spawn(never_runs(), name=f"queued-{i}") for i in range(8)]
        sched.stop()
        for task in tasks:
            assert task.done()
            assert task.future.cancelled()
        del tasks
        gc.collect()

    late = never_runs()
    with pytest.raises(SchedulerStoppedError):
        sched.spawn(late)
    late.close()


def test_stop_closes_timer_queued_tasks():
    """First steps parked behind timers (near and far) are cleaned too."""
    sched = Scheduler()
    fired = []

    async def tick() -> None:  # pragma: no cover - must not start
        fired.append(1)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # A far and a near timer, each carrying a task's first step.
        from repro.kernel.scheduler import Task

        near = Task(tick(), sched, name="near")
        far = Task(tick(), sched, name="far")
        sched.call_later(0.001, Task._step, near)
        sched.call_later(10.0, Task._step, far)
        sched.stop()
        assert near.done() and far.done()
        del near, far
        gc.collect()
    assert not fired


# -- S3: gather semantics pinned ----------------------------------------------


def test_gather_empty_iterable_resolves_immediately():
    sched = Scheduler()

    async def main() -> list:
        return await sched.gather([])

    assert sched.run_until_complete(main()) == []


def test_gather_result_order_is_input_order_not_completion_order():
    sched = Scheduler()

    async def slow(value: str, delay: float) -> str:
        await sched.sleep(delay)
        return value

    async def main() -> list:
        fut: Future[str] = Future()
        sched.call_later(0.05, lambda: fut.set_result("future"))
        return await sched.gather(
            [
                sched.spawn(slow("slowest", 0.9)),  # Task, completes last
                fut,  # plain Future
                slow("coroutine", 0.1),  # bare coroutine, spawned by gather
            ]
        )

    assert sched.run_until_complete(main()) == ["slowest", "future", "coroutine"]


def test_gather_raises_lowest_index_error_not_first_to_fail():
    sched = Scheduler()

    async def fail_after(delay: float, message: str) -> None:
        await sched.sleep(delay)
        raise ValueError(message)

    async def ok(delay: float) -> str:
        await sched.sleep(delay)
        return "ok"

    async def main() -> None:
        # Index 2 fails *first* in time; index 1 fails later.  The reported
        # error must be index 1's (lowest failed index), and every input
        # must have settled before gather raises.
        await sched.gather(
            [
                sched.spawn(ok(0.5)),
                sched.spawn(fail_after(0.4, "lowest-index")),
                sched.spawn(fail_after(0.1, "first-to-fail")),
            ]
        )

    with pytest.raises(ValueError, match="lowest-index"):
        sched.run_until_complete(main())


def test_gather_on_a_stopped_scheduler_closes_its_coroutines():
    """The spawn that raises closes its coroutine and every coroutine input
    after it, so none is left to warn "never awaited" when collected."""
    sched = Scheduler()

    async def child() -> None:  # pragma: no cover - must not start
        raise AssertionError("stopped scheduler ran a gathered coroutine")

    first, second = child(), child()
    pending: Future[None] = Future()
    sched.stop()

    async def main() -> None:
        await sched.gather([first, pending, second])

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        driver = main()
        with pytest.raises(SchedulerStoppedError):
            driver.send(None)
        states = [inspect.getcoroutinestate(coro) for coro in (first, second)]
        assert states == [inspect.CORO_CLOSED, inspect.CORO_CLOSED]
        del driver, first, second
        gc.collect()


# -- S4: dispatch edge cases ---------------------------------------------------


def test_cancel_while_resume_is_queued_delivers_cancellation():
    """A task whose awaited future resolved (resume queued) then got
    cancelled must observe the cancellation, not the stale resume value."""
    sched = Scheduler()
    observed = []

    async def waiter(fut: Future[str]) -> None:
        try:
            observed.append(await fut)
        except BaseException as exc:  # noqa: BLE001 - recording
            observed.append(type(exc).__name__)
            raise

    async def main() -> None:
        fut: Future[str] = Future()
        task = sched.spawn(waiter(fut))
        await sched.sleep(0)  # let the waiter park on fut
        fut.set_result("stale")  # resume step is now queued...
        task.cancel()  # ...and cancellation must win
        await sched.sleep(0.01)
        assert task.done()
        assert task.future.cancelled()

    sched.run_until_complete(main())
    assert observed == ["CancelledError"]


@pytest.mark.parametrize(
    "whens",
    [
        pytest.param([0.001] * 10, id="near"),
        pytest.param([5.0] * 10, id="far"),
        # Far ties armed before the near ones, then more of each: the far
        # group still fires after the near group, each in arming order.
        pytest.param([5.0] * 10 + [0.001] * 10 + [5.0, 0.001] * 5, id="mixed"),
        pytest.param([1.0] * 20, id="one-instant"),
    ],
)
def test_timer_ties_fire_fifo_by_arming_order(whens):
    """Timers armed for the same instant fire in arming (seq) order, however
    near and far deadlines interleave while arming."""
    sched = Scheduler()
    fired: list[int] = []
    for index, when in enumerate(whens):
        sched.call_at(when, fired.append, index)
    sched.drain()
    assert fired == sorted(range(len(whens)), key=lambda i: (whens[i], i))


def test_compaction_mid_run_loses_no_timer():
    """Cancel churn that compacts the heap while the loop is running must
    leave later timers visible to that loop (it once rebound the list)."""
    sched = Scheduler()
    fired: list[int] = []

    async def main() -> None:
        handles = [sched.call_later(0.001, fired.append, i) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        await sched.sleep(0.002)  # armed after the compaction

    sched.run_until_complete(main())
    assert fired == list(range(150, 200))
    assert sched.pending_events == 0
    assert sched._tombstones == 0
