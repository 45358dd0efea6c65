"""The routing and membership paths' event schedule, pinned scenario by scenario.

Each scenario drives one path of the message router or the membership
services that no other pin walks: retried asks over a lossy network, a
duplicated tell, an ask after idle collection and one racing a close, asks
racing a migration's repoint, redo journaling through a silent crash and
eviction into WAL replay, and the reminder pump.  For each one the test pins
every kernel event the dispatch loop ran (count, plus a digest of their
``(when, seq)`` keys in order), the non-zero ``RuntimeStats`` fields and
every reply outcome.  A refactor of the router or the membership code must
reproduce them exactly.
"""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.errors import ThrottledError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.net.faults import NetworkFaultInjector
from repro.runtime import Actor, AodbRuntime, RetryPolicy, RuntimeConfig, WritePolicy
from repro.storage import InMemoryKVStore, SystemStore

from .test_timer_equivalence import log_events, outcome

LAN = 0.0005

#: What the actors below observed, in order.
SEEN: list[tuple] = []


class Echo(Actor):
    placement = "pinned"

    async def echo(self, value):
        SEEN.append(("echo", self.actor_id, value, self.context.silo_id))
        return value

    async def throttled(self):
        raise ThrottledError("busy", retry_after=0.01)

    async def slow(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)
        return self.context.silo_id


class Lingering(Echo):
    async def on_deactivate(self):
        await self.context.runtime.scheduler.sleep(0.2)


class Counter(Actor):
    placement = "pinned"
    durable = True
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 60.0

    async def add(self, amount):
        self.state["total"] = self.state.get("total", 0) + amount
        self.mark_dirty()
        return self.state["total"]


class Alarm(Actor):
    async def arm(self, period):
        self.context.register_reminder("wake", period)
        return self.context.now

    async def disarm(self):
        return self.context.unregister_reminder("wake")

    async def receive_reminder(self, name):
        SEEN.append(("reminder", self.actor_id, name, self.context.now))


# -- scenarios --------------------------------------------------------------------


async def resilient_over_lossy_network(sched, runtime):
    runtime.register_actor(Echo)
    ref = runtime.ref("Echo", "e")
    results = [await ref.echo("warm")]
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(11), loss_rate=0.5)
    )
    policy = RetryPolicy(max_attempts=6, base_delay=0.01, attempt_timeout=0.02)
    calls = [
        ref.ask("echo", "lossy", retry=policy),
        ref.ask("throttled", retry=policy),
        # Backoff outgrows the call deadline: no room for a further attempt.
        ref.ask("throttled", retry=policy, deadline=0.05),
    ]
    for call in calls:
        await settle(sched, call)
    runtime.network.inject_faults(None)
    return results + [outcome(call) for call in calls]


async def duplicated_tell(sched, runtime):
    runtime.register_actor(Echo)
    ref = runtime.ref("Echo", "d")
    results = [await ref.echo("warm")]
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(3), duplication_rate=1.0)
    )
    receipt = ref.tell("echo", "told")
    results.append((receipt.method, receipt.enqueued_at))
    results.append(await ref.echo("asked"))
    runtime.network.inject_faults(None)
    await sched.sleep(0.1)
    return results


async def ask_after_idle_collection(sched, runtime):
    runtime.register_actor(Echo)
    runtime.register_actor(Lingering)
    runtime.start()
    plain, lingering = runtime.ref("Echo", "i"), runtime.ref("Lingering", "l")
    results = [await plain.echo(1), await lingering.echo(1)]
    await sched.sleep(2.5)
    results += [await plain.echo(2), await lingering.echo(2)]
    # Close the lingering actor and ask it from another endpoint while its
    # on_deactivate still runs: the directory entry is stale.
    closing = sched.spawn(runtime.deactivate("Lingering", "l"))
    await sched.sleep(0.05)
    other = runtime.ref("Lingering", "l", caller_endpoint="silo-1")
    results.append(await other.echo(3))
    results.append(await closing)
    results.append(await lingering.echo(4))
    return results


async def migrate_racing_asks(sched, runtime):
    runtime.register_actor(Echo)
    runtime.pinned_placement.pin_prefix("Echo/m", "silo-0")
    ref = runtime.ref("Echo", "m")
    results = [await ref.echo(0)]
    # The slow turn runs on the source and two asks queue behind it; two
    # more are on the wire when the directory is repointed.
    busy = ref.slow(0.05)
    queued = [ref.echo(1), ref.echo(2)]
    await sched.sleep(0.001)
    racers = [ref.echo(3), ref.tell("echo", "told")]
    moving = sched.spawn(runtime.migrate(ref.key, "silo-1"))
    await sched.sleep(0.0)
    late = [ref.echo(i) for i in range(4, 6)]
    results.append(await moving)
    for call in [busy, *queued, racers[0], *late]:
        results.append(outcome(await settled(call)))
    results.append(await runtime.migrate(ref.key, "silo-1"))
    results.append(await ref.echo(6))
    return results


async def redo_crash_evict_replay(sched, runtime):
    runtime.register_actor(Counter)
    runtime.pinned_placement.pin_prefix("Counter/", "silo-1")
    runtime.start()
    refs = [runtime.ref("Counter", f"c{i}") for i in range(3)]
    results = [await ref.add(i + 1) for i, ref in enumerate(refs)]
    await sched.sleep(0.25)
    results.append(await refs[0].add(10))
    await sched.sleep(0.25)
    results.append(runtime.crash_silo("silo-1", detected=False))
    results.append(outcome(await settled(refs[1].add(1))))
    await sched.sleep(3.0)
    results.append(sorted(runtime.describe_cluster()["silos"]))
    results += [await ref.add(100) for ref in refs]
    results.append(runtime.redo_journal.pending_records())
    return results


async def reminder_pump(sched, runtime):
    runtime.register_actor(Alarm)
    runtime.start()
    ref = runtime.ref("Alarm", "a")
    results = [await ref.arm(1.0)]
    await sched.sleep(2.6)
    results.append(await ref.disarm())
    await sched.sleep(1.0)
    return results


async def settle(sched, future):
    while not future.done():
        await sched.sleep(0.01)


async def settled(future):
    try:
        await future
    except Exception:  # noqa: BLE001 - the outcome is what is pinned
        pass
    return future


SCENARIOS = {
    "resilient_over_lossy_network": (resilient_over_lossy_network, {}),
    "duplicated_tell": (duplicated_tell, {}),
    "ask_after_idle_collection": (
        ask_after_idle_collection,
        {"idle_timeout": 1.0, "collection_interval": 0.5},
    ),
    "migrate_racing_asks": (migrate_racing_asks, {}),
    "redo_crash_evict_replay": (
        redo_crash_evict_replay,
        {
            "redo_lag": 0.1,
            "failure_detection_interval": 0.5,
            "suspicion_grace": 0.5,
        },
    ),
    "reminder_pump": (reminder_pump, {"reminder_tick": 0.5}),
}


def record(name, monkeypatch):
    SEEN.clear()
    scenario, settings = SCENARIOS[name]
    sched = Scheduler()
    log = log_events(sched, monkeypatch)
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(
            default_method_cost=0.001, activation_cost=0.0, seed=5, **settings
        ),
        grain_storage=InMemoryKVStore(),
        network=Network(sched, lan=ConstantLatency(LAN)),
        system_store=SystemStore(sched, lease_seconds=1.0),
    )
    runtime.add_silo("silo-0", cores=1)
    runtime.add_silo("silo-1", cores=1)
    results = sched.run_until_complete(scenario(sched, runtime))
    stats = {key: value for key, value in asdict(runtime.stats).items() if value}
    assert len(log) == sched.events_processed
    return {
        "events": sched.events_processed,
        "order": hashlib.sha256(repr(log).encode()).hexdigest()[:16],
        "now": sched.now,
        "stats": stats,
        "results": results,
        "seen": list(SEEN),
    }


#: Recorded before the router and the membership services left runtime.py.
PINNED = {
    "ask_after_idle_collection": {
        "events": 102,
        "now": 2.7110000000000007,
        "order": "d60d87064fa836a7",
        "results": [1, 1, 2, 2, 3, True, 4],
        "seen": [
            ("echo", "i", 1, "silo-0"),
            ("echo", "l", 1, "silo-0"),
            ("echo", "i", 2, "silo-0"),
            ("echo", "l", 2, "silo-0"),
            ("echo", "l", 3, "silo-1"),
            ("echo", "l", 4, "silo-1"),
        ],
        "stats": {
            "activations_collected": 3,
            "activations_created": 5,
            "asks": 6,
            "replies": 6,
        },
    },
    "duplicated_tell": {
        "events": 26,
        "now": 0.10600000000000001,
        "order": "d6cf44bee24ea56a",
        "results": ["warm", ("echo", 0.002), "asked"],
        "seen": [
            ("echo", "d", "warm", "silo-0"),
            ("echo", "d", "told", "silo-0"),
            ("echo", "d", "told", "silo-0"),
            ("echo", "d", "asked", "silo-0"),
            ("echo", "d", "asked", "silo-0"),
        ],
        "stats": {"activations_created": 1, "asks": 2, "replies": 2, "tells": 1},
    },
    "migrate_racing_asks": {
        "events": 60,
        "now": 0.06100000000000001,
        "order": "65416d6bc954e1ef",
        "results": [
            0,
            True,
            ("ok", "silo-0"),
            ("ok", 1),
            ("ok", 2),
            ("ok", 3),
            ("ok", 4),
            ("ok", 5),
            False,
            6,
        ],
        "seen": [
            ("echo", "m", 0, "silo-0"),
            ("echo", "m", 1, "silo-0"),
            ("echo", "m", 2, "silo-0"),
            ("echo", "m", 4, "silo-1"),
            ("echo", "m", 5, "silo-1"),
            ("echo", "m", 3, "silo-1"),
            ("echo", "m", "told", "silo-1"),
            ("echo", "m", 6, "silo-1"),
        ],
        "stats": {
            "activations_created": 2,
            "asks": 8,
            "migration_failures": 1,
            "migrations": 1,
            "replies": 8,
            "tells": 1,
        },
    },
    "redo_crash_evict_replay": {
        "events": 194,
        "now": 3.5140000000000007,
        "order": "e19b1390a3013651",
        "results": [
            1,
            2,
            3,
            11,
            3,
            ("SiloUnavailableError", "silo 'silo-1' is not responding"),
            ["silo-0"],
            111,
            102,
            103,
            7,
        ],
        "seen": [],
        "stats": {
            "activations_crashed": 3,
            "activations_created": 6,
            "activations_replaced": 3,
            "asks": 8,
            "errors": 1,
            "last_error": "Counter/c1.add(): silo 'silo-1' is not responding",
            "replies": 7,
            "silos_evicted": 1,
            "silos_suspected": 1,
        },
    },
    "reminder_pump": {
        "events": 85,
        "now": 3.604,
        "order": "7c12a33bcb46aeef",
        "results": [0.0015, True],
        "seen": [
            ("reminder", "a", "wake", 1.5014999999999998),
            ("reminder", "a", "wake", 2.5015),
        ],
        "stats": {
            "activations_created": 1,
            "asks": 2,
            "reminders_delivered": 2,
            "replies": 2,
            "tells": 2,
        },
    },
    "resilient_over_lossy_network": {
        "events": 164,
        "now": 0.45200000000000023,
        "order": "a984d652f2a7c57c",
        "results": [
            "warm",
            ("ok", "lossy"),
            (
                "DeadlineExceededError",
                "Echo/e.throttled() missed its deadline (t=0.451)",
            ),
            (
                "DeadlineExceededError",
                "Echo/e.throttled() missed its deadline (t=0.037)",
            ),
        ],
        "seen": [("echo", "e", "warm", "silo-0"), ("echo", "e", "lossy", "silo-0")],
        "stats": {
            "activations_created": 1,
            "asks": 11,
            "calls_retried": 7,
            "deadlines_exceeded": 7,
            "errors": 5,
            "last_error": "Echo/e.throttled(): busy",
            "replies": 4,
        },
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_routing_schedule_is_pinned(name, monkeypatch):
    assert record(name, monkeypatch) == PINNED[name]
