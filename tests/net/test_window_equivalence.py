"""The three window coalescers' decisions, pinned scenario by scenario.

``EnvelopeBatcher``, ``DeltaCoalescer`` and ``GroupCommitWriter`` each
close a window, seal a batch and hand results back.  Each scenario below
drives one corner of that and pins what it decides: per-path landing order
with virtual times and cohorts, flush sequence numbers and payloads, and
every ticket's outcome with the virtual time it settled.  The constants were
recorded with the window coroutines and hold unchanged with the windows as
timer callbacks; a change that moves one changes what a window decides, not
just how many kernel events it costs.
"""

import pytest

from repro.kernel import RngRegistry, Scheduler
from repro.kernel.futures import Future
from repro.net import ConstantLatency, Network
from repro.net.batching import PROBE_INTERVAL, SOLO_STREAK_LIMIT, EnvelopeBatcher
from repro.net.deltas import DeltaCoalescer
from repro.storage import InMemoryKVStore, ProvisionedKVStore
from repro.storage.groupcommit import GroupCommitWriter

LAN = 0.001
WINDOW = 0.01


def rounded(value):
    return round(value, 9)


def outcome(future):
    """A settled future as comparable plain data."""
    error = future.exception()
    if error is not None:
        return type(error).__name__
    return future.result()


class Tickets:
    """Remembers when (virtual time) and how each ticket settled."""

    def __init__(self, sched):
        self.sched = sched
        self.settled = {}

    def watch(self, name, ticket):
        ticket.add_done_callback(
            lambda done: self.settled.__setitem__(
                name, (rounded(self.sched.now), outcome(done))
            )
        )
        return ticket

    def log(self):
        return sorted(self.settled.items())


# -- envelope batcher ------------------------------------------------------------


def batcher_rig(**options):
    sched = Scheduler()
    net = Network(
        sched, rng=RngRegistry(1), loopback=ConstantLatency(0.0),
        lan=ConstantLatency(LAN),
    )
    for endpoint in ("client", "silo-a", "silo-b"):
        net.register(endpoint)
    log = []

    def land(member, elapsed, cohort):
        log.append(("land", member, rounded(elapsed), cohort, rounded(sched.now)))

    def fail(member, error):
        log.append(("fail", member, type(error).__name__, rounded(sched.now)))

    batcher = EnvelopeBatcher(net, sched, land, fail, **options)
    return sched, net, batcher, log


def size_seal_while_the_door_timer_is_pending():
    sched, net, batcher, log = batcher_rig(max_size=3, max_delay=WINDOW)

    async def main():
        for name in ("a0", "a1", "a2", "a3"):
            batcher.join("client", "silo-a", (name,))
        batcher.join("client", "silo-b", ("b0",))
        await sched.sleep(WINDOW / 2)
        batcher.join("client", "silo-a", ("a4",))
        await sched.sleep(WINDOW)
        for name in ("a5", "a6", "a7"):
            batcher.join("client", "silo-a", (name,))

    sched.run_until_complete(main())
    sched.drain()
    return log, batcher.flushes, net.stats.envelopes


def solo_streak_goes_immediate_and_the_probe_window_coalesces():
    sched, net, batcher, log = batcher_rig(max_size=8, max_delay=WINDOW)
    spacing = 10 * WINDOW

    async def main():
        for index in range(SOLO_STREAK_LIMIT + 2):
            batcher.join("client", "silo-a", (f"solo{index}",))
            await sched.sleep(spacing)
        # A steady stream half a window apart: immediate envelopes carry one
        # message each until a probe holds its window open for two.
        for index in range(2 * PROBE_INTERVAL + 4):
            batcher.join("client", "silo-a", (f"x{index}",))
            await sched.sleep(WINDOW / 2)

    sched.run_until_complete(main())
    return log, batcher.flushes, batcher.immediate_flushes


def lost_envelope_and_the_chain_after_it():
    sched, net, batcher, log = batcher_rig(max_size=4, max_delay=WINDOW)
    real_plan = net.plan_envelope
    drops = [False, True, False, False]

    def flaky_plan(source, target, count):
        if target == "silo-a" and drops and drops.pop(0):
            net.stats.lost_messages += count
            return None
        return real_plan(source, target, count)

    net.plan_envelope = flaky_plan

    async def main():
        for wave in range(4):
            batcher.join("client", "silo-a", (f"w{wave}a",))
            batcher.join("client", "silo-a", (f"w{wave}b",))
            batcher.join("client", "silo-b", (f"w{wave}c",))
            await sched.sleep(WINDOW * 1.5)

    sched.run_until_complete(main())
    sched.drain()
    return log, net.stats.lost_messages


def vanished_target_fails_every_member():
    sched, net, batcher, log = batcher_rig(max_size=4, max_delay=WINDOW)

    async def main():
        batcher.join("client", "gone", ("g0",))
        batcher.join("client", "gone", ("g1",))
        batcher.join("client", "silo-a", ("a0",))
        await sched.sleep(WINDOW / 2)
        net.unregister("silo-b")
        batcher.join("client", "silo-b", ("b0",))
        batcher.join("client", "gone", ("g2",))

    sched.run_until_complete(main())
    sched.drain()
    return log


def fifo_under_latency_inversion():
    sched, net, batcher, log = batcher_rig(max_size=4, max_delay=WINDOW)

    class ShrinkingLatency:
        def __init__(self):
            self.samples = [5 * WINDOW, 2 * WINDOW, 0.0]

        def sample(self, rng):
            return self.samples.pop(0) if self.samples else LAN

    net.set_path_latency("client", "silo-a", ShrinkingLatency())

    async def main():
        for index in range(4):
            batcher.join("client", "silo-a", (f"m{index}",))
            batcher.join("client", "silo-b", (f"n{index}",))
            await sched.sleep(2 * WINDOW)

    sched.run_until_complete(main())
    sched.drain()
    return log


# -- delta coalescer ---------------------------------------------------------------


class FutureSend:
    """A view shard stand-in: acks each flush after ``delay`` (or fails it).

    Returns a kernel future, which both an awaiting caller and a
    done-callback can consume.
    """

    def __init__(self, sched, delay, fail=()):
        self.sched = sched
        self.delay = delay
        self.fail = set(fail)
        self.calls = []
        self.count = 0

    def __call__(self, shard_id, stream_id, seq, entries):
        self.count += 1
        number = self.count
        self.calls.append(
            (rounded(self.sched.now), shard_id, stream_id, seq, list(entries))
        )
        reply = Future("flush-reply")

        def landed(_timer):
            if number in self.fail:
                reply.set_exception(RuntimeError(f"flush {number} failed"))
            else:
                reply.set_result({"duplicate": False})

        self.sched.sleep(self.delay).add_done_callback(landed)
        return reply


def max_keys_seal():
    sched = Scheduler()
    send = FutureSend(sched, delay=0.001)
    coalescer = DeltaCoalescer(sched, send, "s1", max_delay=0.005, max_keys=2)
    tickets = Tickets(sched)

    async def main():
        tickets.watch("t0", coalescer.emit("v", "g", "e1", 0.0, 1, 1.0, 1.0, 1.0))
        tickets.watch("t1", coalescer.emit("v", "g", "e1", 0.0, 2, 5.0, 2.0, 3.0))
        tickets.watch("t2", coalescer.emit("v", "g", "e2", 0.0, 1, 4.0, 4.0, 4.0))
        tickets.watch("t3", coalescer.emit("v", "g", "e3", 0.0, 1, 7.0, 7.0, 7.0))
        await sched.sleep(0.002)
        tickets.watch("t4", coalescer.emit("v", "g", "e3", 0.0, 1, 9.0, 9.0, 9.0))
        tickets.watch("t5", coalescer.emit("w", "g", "e1", 0.0, 1, 1.0, 1.0, 1.0))

    sched.run_until_complete(main())
    sched.drain()
    return send.calls, tickets.log()


def chained_flush_waits_for_the_previous_ack():
    sched = Scheduler()
    send = FutureSend(sched, delay=0.5)
    coalescer = DeltaCoalescer(sched, send, "s1", max_delay=0.0)
    tickets = Tickets(sched)

    async def main():
        tickets.watch("t0", coalescer.emit("v", "g", "e1", 0.0, 1, 1.0, 1.0, 1.0))
        await sched.sleep(0.1)
        tickets.watch("t1", coalescer.emit("v", "g", "e1", 0.0, 1, 2.0, 2.0, 2.0))
        tickets.watch("t2", coalescer.emit("w", "g", "e1", 0.0, 1, 3.0, 3.0, 3.0))
        await sched.sleep(0.1)
        tickets.watch("t3", coalescer.emit("v", "g", "e2", 0.0, 1, 4.0, 4.0, 4.0))

    sched.run_until_complete(main())
    sched.drain()
    return send.calls, tickets.log(), coalescer.pending_deltas()


def failed_flush_and_the_stream_continuing():
    sched = Scheduler()
    send = FutureSend(sched, delay=0.001, fail=(1,))
    coalescer = DeltaCoalescer(sched, send, "s1", max_delay=0.002)
    tickets = Tickets(sched)

    async def main():
        tickets.watch("t0", coalescer.emit("v", "g", "e1", 0.0, 1, 1.0, 1.0, 1.0))
        tickets.watch("t1", coalescer.emit("v", "g", "e2", 0.0, 1, 2.0, 2.0, 2.0))
        await sched.sleep(0.0025)
        tickets.watch("t2", coalescer.emit("v", "g", "e1", 0.0, 1, 3.0, 3.0, 3.0))
        await sched.sleep(0.01)
        tickets.watch("t3", coalescer.emit("v", "g", "e1", 0.0, 1, 4.0, 4.0, 4.0))

    sched.run_until_complete(main())
    sched.drain()
    return send.calls, tickets.log(), coalescer.flushes, coalescer.flush_failures


# -- group commit ----------------------------------------------------------------


def group_commit_size_trigger_while_the_window_is_open():
    sched = Scheduler()
    store = ProvisionedKVStore(
        sched, write_capacity_units=1000.0, latency=ConstantLatency(0.005)
    )
    writer = GroupCommitWriter(store, sched, max_batch=3, max_delay=0.01)
    tickets = Tickets(sched)

    async def main():
        for index in range(4):
            tickets.watch(f"k{index}", writer.put(f"k{index}", {"v": index}))
        await sched.sleep(0.003)
        tickets.watch("k4", writer.put("k4", {"v": 4}))
        await sched.sleep(0.02)
        tickets.watch("k0-again", writer.put("k0", {"v": 10}, expected_etag=1))

    sched.run_until_complete(main())
    sched.drain()
    return (
        tickets.log(), writer.batches, writer.largest_batch, store.write_batches
    )


def group_commit_batch_and_entry_failures():
    sched = Scheduler()
    memory = InMemoryKVStore()
    conditional = GroupCommitWriter(memory, sched, max_batch=8, max_delay=0.0)
    throttled_store = ProvisionedKVStore(
        sched, write_capacity_units=1.0, on_overload="throttle",
        latency=ConstantLatency(0.002),
    )
    throttled = GroupCommitWriter(throttled_store, sched, max_batch=8, max_delay=0.0)
    tickets = Tickets(sched)

    async def main():
        await memory.put("a", 0)  # etag 1
        tickets.watch("a-stale", conditional.put("a", 1, expected_etag=9))
        tickets.watch("a-fresh", conditional.put("a", 2, expected_etag=1))
        tickets.watch("b", conditional.put("b", 3))
        for index in range(3):
            tickets.watch(
                f"big{index}", throttled.put(f"big{index}", {"v": "x" * 4096})
            )
        await sched.sleep(2.0)
        tickets.watch("small", throttled.put("small", {"v": 1}))

    sched.run_until_complete(main())
    sched.drain()
    return tickets.log(), conditional.batches, throttled.batches


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        size_seal_while_the_door_timer_is_pending,
        solo_streak_goes_immediate_and_the_probe_window_coalesces,
        lost_envelope_and_the_chain_after_it,
        vanished_target_fails_every_member,
        fifo_under_latency_inversion,
        max_keys_seal,
        chained_flush_waits_for_the_previous_ack,
        failed_flush_and_the_stream_continuing,
        group_commit_size_trigger_while_the_window_is_open,
        group_commit_batch_and_entry_failures,
    )
}

RECORDED = {
    "chained_flush_waits_for_the_previous_ack": (
        [
            (0.0, "v", "s1", 1, [("g", "e1", 0.0, 1, 1.0, 1.0, 1.0)]),
            (0.1, "w", "s1", 1, [("g", "e1", 0.0, 1, 3.0, 3.0, 3.0)]),
            (0.5, "v", "s1", 2, [("g", "e1", 0.0, 1, 2.0, 2.0, 2.0)]),
            (1.0, "v", "s1", 3, [("g", "e2", 0.0, 1, 4.0, 4.0, 4.0)]),
        ],
        [("t0", (0.5, 1)), ("t1", (1.0, 1)), ("t2", (0.6, 1)), ("t3", (1.5, 1))],
        0,
    ),
    "failed_flush_and_the_stream_continuing": (
        [
            (
                0.002,
                "v",
                "s1",
                1,
                [
                    ("g", "e1", 0.0, 1, 1.0, 1.0, 1.0),
                    ("g", "e2", 0.0, 1, 2.0, 2.0, 2.0),
                ],
            ),
            (0.0045, "v", "s1", 2, [("g", "e1", 0.0, 1, 3.0, 3.0, 3.0)]),
            (0.0145, "v", "s1", 3, [("g", "e1", 0.0, 1, 4.0, 4.0, 4.0)]),
        ],
        [
            ("t0", (0.003, "RuntimeError")),
            ("t1", (0.003, "RuntimeError")),
            ("t2", (0.0055, 1)),
            ("t3", (0.0155, 1)),
        ],
        3,
        1,
    ),
    "fifo_under_latency_inversion": [
        ("land", "n0", 0.011, 1, 0.011),
        ("land", "n1", 0.011, 1, 0.031),
        ("land", "n2", 0.001, 1, 0.041),
        ("land", "m0", 0.06, 1, 0.06),
        ("land", "m1", 0.04, 1, 0.06),
        ("land", "m2", 0.02, 1, 0.06),
        ("land", "m3", 0.001, 1, 0.061),
        ("land", "n3", 0.001, 1, 0.061),
    ],
    "group_commit_batch_and_entry_failures": (
        [
            ("a-fresh", (0.0, 2)),
            ("a-stale", (0.0, "ConditionalCheckFailedError")),
            ("b", (0.0, 1)),
            ("big0", (0.0, "ThrottledError")),
            ("big1", (0.0, "ThrottledError")),
            ("big2", (0.0, "ThrottledError")),
            ("small", (2.002, 1)),
        ],
        1,
        2,
    ),
    "group_commit_size_trigger_while_the_window_is_open": (
        [
            ("k0", (0.005, 1)),
            ("k0-again", (0.038, 2)),
            ("k1", (0.005, 1)),
            ("k2", (0.005, 1)),
            ("k3", (0.015, 1)),
            ("k4", (0.015, 1)),
        ],
        3,
        3,
        3,
    ),
    "lost_envelope_and_the_chain_after_it": (
        [
            ("land", "w0a", 0.011, 2, 0.011),
            ("land", "w0b", 0.011, 2, 0.011),
            ("land", "w0c", 0.011, 1, 0.011),
            ("land", "w1c", 0.011, 1, 0.026),
            ("land", "w2c", 0.001, 1, 0.031),
            ("land", "w2a", 0.011, 2, 0.041),
            ("land", "w2b", 0.011, 2, 0.041),
            ("land", "w3c", 0.001, 1, 0.046),
            ("land", "w3a", 0.011, 2, 0.056),
            ("land", "w3b", 0.011, 2, 0.056),
        ],
        2,
    ),
    "max_keys_seal": (
        [
            (
                0.0,
                "v",
                "s1",
                1,
                [
                    ("g", "e1", 0.0, 3, 6.0, 1.0, 3.0),
                    ("g", "e2", 0.0, 1, 4.0, 4.0, 4.0),
                ],
            ),
            (0.005, "v", "s1", 2, [("g", "e3", 0.0, 2, 16.0, 7.0, 9.0)]),
            (0.007, "w", "s1", 1, [("g", "e1", 0.0, 1, 1.0, 1.0, 1.0)]),
        ],
        [
            ("t0", (0.001, 3)),
            ("t1", (0.001, 3)),
            ("t2", (0.001, 3)),
            ("t3", (0.006, 2)),
            ("t4", (0.006, 2)),
            ("t5", (0.008, 1)),
        ],
    ),
    "size_seal_while_the_door_timer_is_pending": (
        [
            ("land", "a0", 0.001, 3, 0.001),
            ("land", "a1", 0.001, 3, 0.001),
            ("land", "a2", 0.001, 3, 0.001),
            ("land", "a3", 0.011, 2, 0.011),
            ("land", "a4", 0.006, 2, 0.011),
            ("land", "b0", 0.011, 1, 0.011),
            ("land", "a5", 0.001, 3, 0.016),
            ("land", "a6", 0.001, 3, 0.016),
            ("land", "a7", 0.001, 3, 0.016),
        ],
        4,
        4,
    ),
    "solo_streak_goes_immediate_and_the_probe_window_coalesces": (
        [
            ("land", "solo0", 0.011, 1, 0.011),
            ("land", "solo1", 0.011, 1, 0.111),
            ("land", "solo2", 0.001, 1, 0.201),
            ("land", "solo3", 0.001, 1, 0.301),
            ("land", "x0", 0.001, 1, 0.401),
            ("land", "x1", 0.001, 1, 0.406),
            ("land", "x2", 0.001, 1, 0.411),
            ("land", "x3", 0.001, 1, 0.416),
            ("land", "x4", 0.001, 1, 0.421),
            ("land", "x5", 0.011, 2, 0.436),
            ("land", "x6", 0.006, 2, 0.436),
            ("land", "x7", 0.011, 2, 0.446),
            ("land", "x8", 0.006, 2, 0.446),
            ("land", "x9", 0.011, 2, 0.456),
            ("land", "x10", 0.006, 2, 0.456),
            ("land", "x11", 0.011, 2, 0.466),
            ("land", "x12", 0.006, 2, 0.466),
            ("land", "x13", 0.011, 2, 0.476),
            ("land", "x14", 0.006, 2, 0.476),
            ("land", "x15", 0.011, 2, 0.486),
            ("land", "x16", 0.006, 2, 0.486),
            ("land", "x17", 0.011, 2, 0.496),
            ("land", "x18", 0.006, 2, 0.496),
        ],
        16,
        7,
    ),
    "vanished_target_fails_every_member": [
        ("fail", "g0", "KeyError", 0.01),
        ("fail", "g1", "KeyError", 0.01),
        ("fail", "g2", "KeyError", 0.01),
        ("land", "a0", 0.011, 1, 0.011),
        ("fail", "b0", "KeyError", 0.015),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_window_decisions_match_the_recording(name):
    assert SCENARIOS[name]() == RECORDED[name]
