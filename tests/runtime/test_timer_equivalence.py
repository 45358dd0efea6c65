"""Activation timers' event schedule, pinned scenario by scenario.

A timer arms in one ready event after ``register_timer`` and each tick runs
in one ready event after its sleep fires, at the same ``(when, seq)`` a
per-timer task coroutine used to step at.  Each scenario below drives one
corner of the timer path and pins what that schedule decides: the tick
times, every kernel event the dispatch loop ran (count, plus a digest of
their ``(when, seq)`` keys in order), the non-zero ``RuntimeStats`` fields,
grain-storage writes (interval flushes) and every reply outcome.  The
constants were recorded with the task-driven timers and hold unchanged
without them; a change that moves one moves the schedule.
"""

import hashlib
import heapq
import types
from collections import deque
from dataclasses import asdict

import pytest

from repro.kernel import Scheduler
from repro.kernel import scheduler as scheduler_module
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import InMemoryKVStore, SystemStore

LAN = 0.0005

#: (actor id, timer name, virtual time) of every tick a Ticker ran.
TICKS: list[tuple[str, str, float]] = []


class Ticker(Actor):
    async def begin(self, name, period):
        self.context.register_timer(name, period, "tick", name)
        return self.context.now

    async def tick(self, name):
        TICKS.append((self.actor_id, name, self.context.now))

    async def stop(self, name):
        return self.context.cancel_timer(name)

    async def flicker(self, name):
        # Registered and cancelled inside one turn: the timer never arms.
        self.context.register_timer(name, 0.1, "tick", name)
        return self.context.cancel_timer(name)

    async def slow(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)
        return seconds


class Juggler(Ticker):
    reentrant = True


class Ledger(Actor):
    durable = True
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 1.0

    async def add(self, amount):
        self.state["total"] = self.state.get("total", 0) + amount
        self.mark_dirty()
        return self.state["total"]


class _LoggedReady(deque):
    """The ready deque, logging the key of every callback it hands out."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def popleft(self):
        entry = super().popleft()
        self.log.append((entry[0], entry[1]))
        return entry


def log_events(sched, monkeypatch):
    """Log the ``(when, seq)`` of every event ``sched`` dispatches."""
    log: list[tuple[float, int]] = []
    sched._ready = _LoggedReady(log)

    def heappop(events):
        entry = heapq.heappop(events)
        if entry[2]._callback is not None:  # a tombstone is not an event
            log.append((entry[0], entry[1]))
        return entry

    shim = types.SimpleNamespace(
        heappush=heapq.heappush, heappop=heappop, heapify=heapq.heapify
    )
    monkeypatch.setattr(scheduler_module, "heapq", shim)
    return log


def outcome(future):
    if not future.done():
        return ("pending",)
    if future.cancelled():
        return ("cancelled",)
    error = future.exception()
    if error is not None:
        return (type(error).__name__, str(error))
    return ("ok", future.result())


def activation_of(runtime, type_name, actor_id):
    for silo in runtime.silos():
        for activation in silo.activations():
            if activation.key.qualified() == f"{type_name}/{actor_id}":
                return activation
    raise LookupError(f"{type_name}/{actor_id} is not active")


# -- scenarios --------------------------------------------------------------------


async def interval_across_reactivation(sched, runtime):
    runtime.register_actor(Ledger)
    ref = runtime.ref("Ledger", "l")
    results = [await ref.add(1), await ref.add(2)]
    await sched.sleep(1.5)
    results.append(await ref.add(3))
    results.append(await runtime.deactivate("Ledger", "l"))
    await sched.sleep(0.3)
    results.append(await ref.add(4))
    await sched.sleep(2.2)
    return results


async def cancel_while_parked(sched, runtime):
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    await ref.begin("a", 1.0)
    await ref.begin("b", 0.4)
    await sched.sleep(2.5)
    results = [await ref.stop("a"), await ref.stop("missing")]
    results.append(await ref.flicker("c"))
    # "b" last fired at 2.4: cancel it from outside, while its next sleep
    # is pending.
    results.append(activation_of(runtime, "Ticker", "t").cancel_timer("b"))
    await sched.sleep(2.0)
    return results


async def cancel_between_fire_and_tick(sched, runtime):
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    registered = await ref.begin("a", 1.0)
    activation = activation_of(runtime, "Ticker", "t")
    third = registered + 1.0 + 1.0 + 1.0
    await sched.sleep(2.5)
    # Armed after "a"'s third sleep, at the same instant: this timer fires
    # right after it, and its callback cancels before the tick's step runs.
    results = []
    sched.at(third).add_done_callback(
        lambda _: results.append(activation.cancel_timer("a"))
    )
    await sched.sleep(2.0)
    return results


async def reregister_same_name(sched, runtime):
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    await ref.begin("a", 1.0)
    await ref.begin("b", 0.6)
    await sched.sleep(1.5)
    await ref.begin("a", 0.7)
    await sched.sleep(1.0)
    await ref.begin("b", 0.25)
    await sched.sleep(1.0)
    return [await ref.stop("a"), await ref.stop("b")]


async def tick_during_close_drain(sched, runtime):
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    await ref.begin("a", 0.5)
    await ref.begin("b", 5.0)
    await sched.sleep(0.4 - sched.now)
    slow = ref.slow(1.0)
    await sched.sleep(0.3)
    # The tick queued at 0.5 is still behind the slow turn; "a" fires again
    # at 1.0 while the close drains, and "b" is still asleep at the end.
    closed = await runtime.deactivate("Ticker", "t")
    results = [closed, await slow]
    await sched.sleep(1.0)
    results.append(await ref.begin("a", 0.5))
    await sched.sleep(1.2)
    return results


async def crash_abort(sched, runtime):
    runtime.add_silo("silo-1", cores=1)
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    await ref.begin("a", 1.0)
    await ref.begin("b", 0.3)
    slow = ref.slow(2.0)
    await sched.sleep(1.4 - sched.now)
    home = activation_of(runtime, "Ticker", "t").silo.silo_id
    lost = runtime.crash_silo(home)
    results = [lost, await settle_one(sched, slow)]
    await sched.sleep(0.5)
    results.append(await ref.begin("a", 1.0))
    await sched.sleep(2.5)
    return results


async def quarantine_park(sched, runtime):
    runtime.register_actor(Ticker)
    ref = runtime.ref("Ticker", "t")
    await ref.begin("a", 1.0)
    await ref.begin("b", 0.3)
    await sched.sleep(1.5)
    results = [await runtime.quarantine_silo("silo-0")]
    await sched.sleep(1.0)
    results.append(runtime.rejoin_silo("silo-0"))
    await sched.sleep(0.1)
    results.append(await ref.begin("a", 1.0))
    await sched.sleep(2.5)
    return results


async def reentrant_actor(sched, runtime):
    runtime.register_actor(Juggler)
    ref = runtime.ref("Juggler", "j")
    await ref.begin("a", 0.5)
    holds = [ref.slow(0.8 + 0.3 * i) for i in range(3)]
    await sched.sleep(0.7)
    await ref.begin("b", 0.2)
    results = [await hold for hold in holds]
    await sched.sleep(1.0)
    results.append(await ref.stop("a"))
    await sched.sleep(0.5)
    return results


async def settle_one(sched, future):
    while not future.done():
        await sched.sleep(0.01)
    return outcome(future)


SCENARIOS = {
    "interval_across_reactivation": interval_across_reactivation,
    "cancel_while_parked": cancel_while_parked,
    "cancel_between_fire_and_tick": cancel_between_fire_and_tick,
    "reregister_same_name": reregister_same_name,
    "tick_during_close_drain": tick_during_close_drain,
    "crash_abort": crash_abort,
    "quarantine_park": quarantine_park,
    "reentrant_actor": reentrant_actor,
}


def record(name, monkeypatch):
    TICKS.clear()
    sched = Scheduler()
    log = log_events(sched, monkeypatch)
    store = InMemoryKVStore()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.001, activation_cost=0.0),
        grain_storage=store,
        network=Network(sched, lan=ConstantLatency(LAN)),
        system_store=SystemStore(sched, lease_seconds=1.0),
    )
    runtime.add_silo("silo-0", cores=1)
    results = sched.run_until_complete(SCENARIOS[name](sched, runtime))
    stats = {key: value for key, value in asdict(runtime.stats).items() if value}
    assert len(log) == sched.events_processed
    return {
        "ticks": list(TICKS),
        "events": sched.events_processed,
        "order": hashlib.sha256(repr(log).encode()).hexdigest()[:16],
        "now": sched.now,
        "stats": stats,
        "store_writes": store.writes,
        "results": results,
    }


#: Recorded with the task-driven timers.
PINNED = {
    "cancel_between_fire_and_tick": {
        "events": 53,
        "now": 4.502,
        "order": "70514becf69f3ba3",
        "results": [True],
        "stats": {"activations_created": 1, "asks": 1, "replies": 1},
        "store_writes": 0,
        "ticks": [("t", "a", 1.0025), ("t", "a", 2.0025)],
    },
    "cancel_while_parked": {
        "events": 110,
        "now": 4.510000000000001,
        "order": "4f414cf924903c71",
        "results": [True, False, True, True],
        "stats": {"activations_created": 1, "asks": 5, "replies": 5},
        "store_writes": 0,
        "ticks": [
            ("t", "b", 0.4045),
            ("t", "b", 0.8045000000000001),
            ("t", "a", 1.0025),
            ("t", "b", 1.2045),
            ("t", "b", 1.6044999999999998),
            ("t", "a", 2.0025),
            ("t", "b", 2.0044999999999997),
            ("t", "b", 2.4044999999999996),
        ],
    },
    "crash_abort": {
        "events": 98,
        "now": 4.401999999999999,
        "order": "5384fc07fb34230e",
        "results": [
            1,
            ("SiloUnavailableError", "silo 'silo-0' crashed"),
            1.9014999999999997,
        ],
        "stats": {
            "activations_crashed": 1,
            "activations_created": 2,
            "asks": 4,
            "replies": 3,
        },
        "store_writes": 0,
        "ticks": [("t", "a", 2.9024999999999994), ("t", "a", 3.9024999999999994)],
    },
    "interval_across_reactivation": {
        "events": 73,
        "now": 4.008,
        "order": "aabbbb507b4d7f8e",
        "results": [1, 3, 6, True, 10],
        "stats": {
            "activations_collected": 1,
            "activations_created": 2,
            "asks": 4,
            "replies": 4,
        },
        "store_writes": 3,
        "ticks": [],
    },
    "quarantine_park": {
        "events": 108,
        "now": 5.106,
        "order": "b44733df49cd2b81",
        "results": [1, True, 2.6055],
        "stats": {
            "activations_created": 2,
            "asks": 3,
            "replies": 3,
            "silos_quarantined": 1,
            "silos_rejoined": 2,
        },
        "store_writes": 0,
        "ticks": [
            ("t", "b", 0.3045),
            ("t", "b", 0.6044999999999999),
            ("t", "b", 0.9045),
            ("t", "a", 1.0025),
            ("t", "b", 1.2045),
            ("t", "b", 1.5045),
            ("t", "a", 3.6065),
            ("t", "a", 4.6065000000000005),
        ],
    },
    "reentrant_actor": {
        "events": 165,
        "now": 2.908,
        "order": "031f60d3b534001e",
        "results": [0.8, 1.1, 1.4, True],
        "stats": {"activations_created": 1, "asks": 6, "replies": 6},
        "store_writes": 0,
        "ticks": [
            ("j", "a", 0.5025),
            ("j", "b", 0.9045),
            ("j", "a", 1.0025),
            ("j", "b", 1.1044999999999998),
            ("j", "b", 1.3044999999999998),
            ("j", "a", 1.5025),
            ("j", "b", 1.5044999999999997),
            ("j", "b", 1.7044999999999997),
            ("j", "b", 1.9044999999999996),
            ("j", "a", 2.0025),
            ("j", "b", 2.1045),
            ("j", "b", 2.3045),
            ("j", "b", 2.5045),
            ("j", "b", 2.7045000000000003),
            ("j", "b", 2.9045000000000005),
        ],
    },
    "reregister_same_name": {
        "events": 130,
        "now": 3.5120000000000005,
        "order": "574087d30e0154a6",
        "results": [True, True],
        "stats": {"activations_created": 1, "asks": 6, "replies": 6},
        "store_writes": 0,
        "ticks": [
            ("t", "b", 0.6044999999999999),
            ("t", "a", 1.0025),
            ("t", "b", 1.2045),
            ("t", "b", 1.8045),
            ("t", "a", 2.2064999999999997),
            ("t", "b", 2.4045),
            ("t", "b", 2.7584999999999997),
            ("t", "a", 2.9065),
            ("t", "b", 3.0084999999999997),
            ("t", "b", 3.2584999999999997),
            ("t", "b", 3.5084999999999997),
        ],
    },
    "tick_during_close_drain": {
        "events": 78,
        "now": 3.6045,
        "order": "d23d97024ea52136",
        "results": [True, 1.0, 2.404],
        "stats": {
            "activations_collected": 1,
            "activations_created": 2,
            "asks": 4,
            "replies": 4,
        },
        "store_writes": 0,
        "ticks": [("t", "a", 1.4024999999999999), ("t", "a", 2.905), ("t", "a", 3.405)],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timer_schedule_is_pinned(name, monkeypatch):
    assert record(name, monkeypatch) == PINNED[name]
