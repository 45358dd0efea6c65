"""Unit tests for the virtual-time scheduler and tasks."""

import pytest

from repro.errors import CancelledError, DeadlockError
from repro.errors import TimeoutError as KernelTimeoutError
from repro.kernel import Future, Scheduler, run


def test_run_returns_coroutine_value():
    async def main():
        return 99

    assert run(main()) == 99


def test_virtual_time_advances_with_sleep():
    sched = Scheduler()
    timestamps = []

    async def main():
        timestamps.append(sched.now)
        await sched.sleep(1.5)
        timestamps.append(sched.now)
        await sched.sleep(0.5)
        timestamps.append(sched.now)

    sched.run_until_complete(main())
    assert timestamps == [0.0, 1.5, 2.0]


def test_sleep_zero_yields_but_does_not_advance_time():
    sched = Scheduler()

    async def main():
        before = sched.now
        await sched.sleep(0)
        return sched.now - before

    assert sched.run_until_complete(main()) == 0.0


def test_concurrent_tasks_interleave_deterministically():
    sched = Scheduler()
    order = []

    async def worker(name, delay):
        await sched.sleep(delay)
        order.append(name)

    async def main():
        tasks = [
            sched.spawn(worker("slow", 2.0)),
            sched.spawn(worker("fast", 1.0)),
            sched.spawn(worker("tie-a", 1.0)),
        ]
        await sched.gather(tasks)

    sched.run_until_complete(main())
    # Ties resolve in spawn/FIFO order.
    assert order == ["fast", "tie-a", "slow"]


def test_task_exception_propagates_to_awaiter():
    sched = Scheduler()

    async def boom():
        await sched.sleep(1)
        raise ValueError("kapow")

    async def main():
        task = sched.spawn(boom())
        with pytest.raises(ValueError, match="kapow"):
            await task
        return "survived"

    assert sched.run_until_complete(main()) == "survived"


def test_task_cancel_before_start():
    sched = Scheduler()
    ran = []

    async def worker():
        ran.append(True)

    async def main():
        task = sched.spawn(worker())
        task.cancel()
        await sched.sleep(1)
        return task.future.cancelled()

    assert sched.run_until_complete(main()) is True
    assert ran == []


def test_task_cancel_while_sleeping():
    sched = Scheduler()
    cleaned_up = []

    async def worker():
        try:
            await sched.sleep(100)
        except CancelledError:
            cleaned_up.append(True)
            raise

    async def main():
        task = sched.spawn(worker())
        await sched.sleep(1)
        task.cancel()
        await sched.sleep(0)
        return task.future.cancelled()

    assert sched.run_until_complete(main()) is True
    assert cleaned_up == [True]
    assert sched.now < 100


def test_cancel_finished_task_returns_false():
    sched = Scheduler()

    async def worker():
        return 1

    async def main():
        task = sched.spawn(worker())
        await task
        return task.cancel()

    assert sched.run_until_complete(main()) is False


def test_deadlock_detection():
    sched = Scheduler()

    async def main():
        await Future("never")

    with pytest.raises(DeadlockError):
        sched.run_until_complete(main())


def test_awaiting_non_future_fails_the_task():
    sched = Scheduler()

    class Bogus:
        def __await__(self):
            yield "not a future"

    async def main():
        await Bogus()

    with pytest.raises(TypeError):
        sched.run_until_complete(main())


def test_timeout_fires_when_too_slow():
    sched = Scheduler()

    async def slow():
        await sched.sleep(10)
        return "done"

    async def main():
        task = sched.spawn(slow())
        with pytest.raises(KernelTimeoutError):
            await sched.timeout(task, 5)
        return sched.now

    assert sched.run_until_complete(main()) == 5


def test_timeout_passes_through_fast_result():
    sched = Scheduler()

    async def fast():
        await sched.sleep(1)
        return "quick"

    async def main():
        return await sched.timeout(sched.spawn(fast()), 5)

    assert sched.run_until_complete(main()) == "quick"


def test_gather_mixes_tasks_and_futures():
    sched = Scheduler()

    async def value(v, d):
        await sched.sleep(d)
        return v

    async def main():
        fut = Future()
        sched.call_later(1, lambda: fut.set_result("from-future"))
        return await sched.gather([sched.spawn(value("a", 3)), fut, value("c", 2)])

    assert sched.run_until_complete(main()) == ["a", "from-future", "c"]


def test_run_for_advances_clock_to_deadline():
    sched = Scheduler()
    fired = []
    sched.call_later(1.0, lambda: fired.append(1))
    sched.call_later(5.0, lambda: fired.append(5))
    sched.run_for(2.0)
    assert fired == [1]
    assert sched.now == 2.0
    sched.run_for(4.0)
    assert fired == [1, 5]


def test_run_for_deadline_is_inclusive():
    """A timer exactly at the deadline fires; one just past it does not."""
    sched = Scheduler()
    fired = []
    sched.call_at(2.0, fired.append, "at")
    sched.call_at(2.000001, fired.append, "past")
    sched.run_for(2.0)
    assert fired == ["at"]
    assert sched.now == 2.0
    assert sched.pending_events == 1
    sched.run_for(0.0)  # nothing due: an empty window runs nothing
    assert fired == ["at"]
    sched.drain()
    assert fired == ["at", "past"]


def test_call_at_in_the_past_runs_now():
    sched = Scheduler(start_time=10.0)
    fired = []
    sched.call_at(3.0, lambda: fired.append(sched.now))
    sched.drain()
    assert fired == [10.0]


def test_events_processed_counter():
    sched = Scheduler()

    async def main():
        for _ in range(3):
            await sched.sleep(1)

    sched.run_until_complete(main())
    assert sched.events_processed >= 3


def test_cancel_lands_even_when_awaited_future_just_resolved():
    # Regression: cancelling a task whose awaited future has already
    # resolved (resume step still queued) must not be a silent no-op —
    # the looping task would otherwise keep running forever.
    sched = Scheduler()
    ticks = []

    async def looper():
        while True:
            await sched.sleep(0.5)
            ticks.append(sched.now)

    async def main():
        task = sched.spawn(looper())
        # t=2.0 coincides exactly with a sleep expiry, so at cancel time
        # the sleep future is resolved but looper has not resumed yet.
        await sched.at(2.0)
        assert task.cancel() is True
        await sched.sleep(2.0)
        assert task.done()

    sched.run_until_complete(main())
    assert ticks == [0.5, 1.0, 1.5]


def test_cancel_detaches_from_pending_future():
    sched = Scheduler()
    ticks = []

    async def looper():
        while True:
            await sched.sleep(0.5)
            ticks.append(sched.now)

    async def main():
        task = sched.spawn(looper())
        await sched.at(1.75)  # mid-sleep: the awaited future is pending
        task.cancel()
        await sched.sleep(2.0)
        assert task.done()

    sched.run_until_complete(main())
    assert ticks == [0.5, 1.0, 1.5]
