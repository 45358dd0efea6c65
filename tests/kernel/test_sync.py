"""Unit tests for kernel synchronization primitives."""

import pytest

from repro.kernel import Event, Lock, Queue


def test_event_wait_and_set(sched):
    event = Event(sched)
    woken = []

    async def waiter(name):
        await event.wait()
        woken.append(name)

    async def main():
        sched.spawn(waiter("a"))
        sched.spawn(waiter("b"))
        await sched.sleep(1)
        assert woken == []
        event.set()
        await sched.sleep(0)

    sched.run_until_complete(main())
    assert woken == ["a", "b"]
    assert event.is_set()


def test_event_wait_after_set_is_immediate(sched):
    event = Event(sched)
    event.set()

    async def main():
        before = sched.now
        await event.wait()
        return sched.now - before

    assert sched.run_until_complete(main()) == 0.0


def test_event_clear_blocks_again(sched):
    event = Event(sched)
    event.set()
    event.clear()
    assert not event.is_set()


def test_lock_mutual_exclusion_and_fifo(sched):
    lock = Lock(sched)
    order = []

    async def worker(name, hold):
        async with lock:
            order.append(("in", name))
            await sched.sleep(hold)
            order.append(("out", name))

    async def main():
        tasks = [
            sched.spawn(worker("a", 2)),
            sched.spawn(worker("b", 1)),
            sched.spawn(worker("c", 1)),
        ]
        await sched.gather(tasks)

    sched.run_until_complete(main())
    assert order == [
        ("in", "a"), ("out", "a"),
        ("in", "b"), ("out", "b"),
        ("in", "c"), ("out", "c"),
    ]
    assert not lock.locked


def test_lock_release_unlocked_raises(sched):
    with pytest.raises(RuntimeError):
        Lock(sched).release()


def test_queue_fifo_order(sched):
    queue = Queue(sched)

    async def main():
        queue.put_nowait(1)
        queue.put_nowait(2)
        first = await queue.get()
        second = await queue.get()
        return first, second

    assert sched.run_until_complete(main()) == (1, 2)


def test_queue_get_blocks_until_put(sched):
    queue = Queue(sched)
    got = []

    async def consumer():
        got.append(await queue.get())

    async def main():
        sched.spawn(consumer())
        await sched.sleep(5)
        assert got == []
        queue.put_nowait("late")
        await sched.sleep(0)

    sched.run_until_complete(main())
    assert got == ["late"]


def test_queue_hands_items_to_waiting_getters(sched):
    # A waiting getter receives the item directly, in FIFO order, without
    # the item ever being buffered.
    queue = Queue(sched)
    got = []

    async def consumer():
        got.append(await queue.get())
        got.append(await queue.get())

    async def main():
        sched.spawn(consumer())
        await sched.sleep(0)
        queue.put_nowait("a")
        assert queue.empty()
        queue.put_nowait("b")
        await sched.sleep(0)

    sched.run_until_complete(main())
    assert got == ["a", "b"]
