"""The mailbox's event schedule, pinned scenario by scenario.

Activations serve their mailboxes with callbacks over the kernel events a
per-activation pump coroutine used to wait on, at the same ``(when, seq)``.
Each scenario below drives one corner of the turn path and pins what that
schedule decides: the kernel's event count, the final virtual clock, the
non-zero ``RuntimeStats`` fields and every reply outcome.  The constants
were recorded with the pump coroutine and hold unchanged without it; a
change that moves one moves the schedule.
"""

from dataclasses import asdict

import pytest

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy, actor_method
from repro.storage import InMemoryKVStore, ProvisionedKVStore, SystemStore

LAN = 0.0005


def build(sched, *, cores=1, store=None, **config):
    config.setdefault("default_method_cost", 0.001)
    config.setdefault("activation_cost", 0.0)
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(**config),
        grain_storage=store if store is not None else InMemoryKVStore(),
        network=Network(sched, lan=ConstantLatency(LAN)),
        system_store=SystemStore(sched, lease_seconds=1.0),
    )
    runtime.add_silo("silo-0", cores=cores)
    return runtime


def outcome(future):
    """A reply future's settled outcome, as comparable plain data."""
    if not future.done():
        return ("pending",)
    if future.cancelled():
        return ("cancelled",)
    error = future.exception()
    if error is not None:
        return (type(error).__name__, str(error))
    return ("ok", future.result())


async def settle(sched, futures):
    """Wait until every future has settled, whatever its outcome."""
    for future in futures:
        while not future.done():
            await sched.sleep(0.01)
    return [outcome(future) for future in futures]


# -- actors ----------------------------------------------------------------------


class Worker(Actor):
    async def work(self, value):
        return value * 2

    @actor_method(cost=0.0)
    async def free(self, value):
        return value + 1

    async def slow(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)
        return seconds

    async def relay(self, peer, value):
        return await self.context.actor("Worker", peer).work(value)

    def plain(self):
        return "not awaitable"

    def handoff(self):
        return self.context.runtime.scheduler.sleep(0.002)


class Cycle(Actor):
    allow_chain_reentrancy = True

    async def start(self, peer):
        return await self.context.actor("Cycle", peer).bounce(self.actor_id)

    async def bounce(self, origin):
        return await self.context.actor("Cycle", origin).leaf()

    async def leaf(self):
        return "leaf"


class Juggler(Actor):
    reentrant = True

    async def hold(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)
        return seconds


class Ledger(Actor):
    durable = True
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 1.0

    async def add(self, amount):
        self.state["total"] = self.state.get("total", 0) + amount
        self.mark_dirty()
        return self.state["total"]


class Journal(Actor):
    durable = True
    write_policy = WritePolicy.WRITE_THROUGH

    async def note(self, text):
        self.state.setdefault("notes", []).append(text)
        return len(self.state["notes"])

    @actor_method(read_only=True)
    async def count(self):
        return len(self.state.get("notes", []))


class Account(Actor):
    async def deposit(self, amount):
        self.state["balance"] = self.state.get("balance", 0) + amount
        self.mark_dirty()
        return self.state["balance"]

    async def withdraw(self, amount):
        if self.state.get("balance", 0) < amount:
            raise ValueError("insufficient funds")
        self.state["balance"] -= amount
        self.mark_dirty()
        return self.state["balance"]

    async def balance(self):
        return self.state.get("balance", 0)


class Lingering(Actor):
    async def on_deactivate(self):
        await self.context.runtime.scheduler.sleep(0.05)

    async def step(self, value):
        await self.context.runtime.scheduler.sleep(0.01)
        return value


class Fragile(Actor):
    failures = 0

    async def on_activate(self):
        await self.context.runtime.scheduler.sleep(0.001)
        if type(self).failures < 1:
            type(self).failures += 1
            raise RuntimeError("activation refused")

    async def ping(self):
        return "pong"


class Narrow(Actor):
    mailbox_capacity = 1

    async def work(self, value):
        return value


# -- scenarios --------------------------------------------------------------------


def costed_and_zero_cost(sched, runtime):
    runtime.register_actor(Worker)
    ref = runtime.ref("Worker", "w")
    futures = [ref.work(i) for i in range(4)] + [ref.free(i) for i in range(3)]
    for i in range(3):
        ref.tell("work", i)
    return futures


def suspends_on_sub_ask(sched, runtime):
    runtime.register_actor(Worker)
    return [runtime.ref("Worker", "a").relay("b", i) for i in range(3)]


def missing_and_non_coroutine(sched, runtime):
    runtime.register_actor(Worker)
    ref = runtime.ref("Worker", "w")
    return [ref.ask("nope"), ref.plain(), ref.handoff(), ref.work(1)]


def lapsed_deadline(sched, runtime):
    runtime.register_actor(Worker)
    ref = runtime.ref("Worker", "w")
    return [ref.slow(0.05), ref.ask("work", 1, deadline=0.01), ref.work(2)]


def chain_and_reentrant(sched, runtime):
    runtime.register_actors([Cycle, Juggler])
    juggler = runtime.ref("Juggler", "j")
    futures = [runtime.ref("Cycle", "a").start("b")]
    futures += [juggler.hold(0.01 * (3 - i)) for i in range(3)]

    async def close_while_juggling():
        await sched.sleep(0.005)
        # Close waits for the interleaved turns still holding.
        await runtime.deactivate("Juggler", "j")
        return await juggler.hold(0.001)

    futures.append(sched.spawn(close_while_juggling()).future)
    return futures


def interval_flush(sched, runtime):
    runtime.register_actor(Ledger)
    ref = runtime.ref("Ledger", "l")
    futures = [ref.add(i) for i in range(3)]

    async def later():
        await sched.sleep(1.5)
        futures.append(ref.add(10))
        await sched.sleep(1.0)

    futures.append(sched.spawn(later()).future)
    return futures


def rejected_write_through(sched, runtime):
    runtime.register_actor(Journal)
    ref = runtime.ref("Journal", "j")
    return [ref.note("a"), ref.note("b"), ref.count(), ref.note("c")]


def transaction_snapshot_restore(sched, runtime):
    db = AodbDatabase(runtime)
    db.register_actor(Account)

    async def main():
        await db.ref("Account", "a").deposit(100)
        async with db.transaction() as txn:
            await txn.call("Account", "a", "withdraw", 30)
            await txn.call("Account", "b", "deposit", 30)
        try:
            async with db.transaction() as txn:
                await txn.call("Account", "b", "deposit", 500)
                await txn.call("Account", "a", "withdraw", 500)
        except ValueError:
            pass
        return [
            await db.ref("Account", "a").balance(),
            await db.ref("Account", "b").balance(),
        ]

    return [sched.spawn(main()).future]


def deactivation_and_failed_activation(sched, runtime):
    runtime.register_actors([Lingering, Fragile])
    Fragile.failures = 0
    ref = runtime.ref("Lingering", "x")
    futures = [ref.step(i) for i in range(3)]

    async def close_then_call():
        await sched.sleep(0.001)
        await runtime.deactivate("Lingering", "x")
        return await ref.step(9)

    futures.append(sched.spawn(close_then_call()).future)
    fragile = runtime.ref("Fragile", "f")
    futures += [fragile.ping(), fragile.ping()]

    async def retry():
        await sched.sleep(0.01)
        return await fragile.ping()

    futures.append(sched.spawn(retry()).future)
    return futures


def park_rejoin_and_overflow(sched, runtime):
    runtime.register_actors([Worker, Narrow])
    worker = runtime.ref("Worker", "w")
    narrow = runtime.ref("Narrow", "n")
    futures = [narrow.work(i) for i in range(4)]

    async def partition():
        futures.append(worker.work(1))
        await sched.sleep(0.01)
        await runtime.quarantine_silo("silo-0")
        parked = worker.work(2)
        await sched.sleep(0.01)
        runtime.rejoin_silo("silo-0")
        await sched.sleep(0.01)
        rejoined = worker.work(3)
        return [outcome(parked), await rejoined]

    futures.append(sched.spawn(partition()).future)
    return futures


SCENARIOS = {
    "costed_and_zero_cost": (costed_and_zero_cost, {}),
    "suspends_on_sub_ask": (suspends_on_sub_ask, {}),
    "missing_and_non_coroutine": (missing_and_non_coroutine, {}),
    "lapsed_deadline": (lapsed_deadline, {}),
    "chain_and_reentrant": (chain_and_reentrant, {"cores": 2}),
    "interval_flush": (interval_flush, {}),
    "rejected_write_through": (rejected_write_through, {"store": "throttled"}),
    "transaction_snapshot_restore": (transaction_snapshot_restore, {}),
    "deactivation_and_failed_activation": (deactivation_and_failed_activation, {}),
    "park_rejoin_and_overflow": (park_rejoin_and_overflow, {}),
}


def record(name):
    scenario, options = SCENARIOS[name]
    sched = Scheduler()
    options = dict(options)
    if options.get("store") == "throttled":
        options["store"] = ProvisionedKVStore(
            sched, write_capacity_units=1.0, latency=ConstantLatency(0.001)
        )
    runtime = build(sched, **options)

    async def main():
        return await settle(sched, scenario(sched, runtime))

    outcomes = sched.run_until_complete(main())
    stats = {key: value for key, value in asdict(runtime.stats).items() if value}
    return {
        "events": sched.events_processed,
        "now": sched.now,
        "stats": stats,
        "outcomes": outcomes,
    }


#: Recorded with the per-activation pump coroutine.
PINNED = {
    "chain_and_reentrant": {
        "events": 63,
        "now": 0.04,
        "stats": {
            "asks": 7,
            "replies": 7,
            "activations_created": 4,
            "activations_collected": 1,
        },
        "outcomes": [
            ("ok", "leaf"),
            ("ok", 0.03),
            ("ok", 0.02),
            ("ok", 0.01),
            ("ok", 0.001),
        ],
    },
    "costed_and_zero_cost": {
        "events": 37,
        "now": 0.01,
        "stats": {
            "asks": 7,
            "tells": 3,
            "replies": 7,
            "activations_created": 1,
        },
        "outcomes": [
            ("ok", 0),
            ("ok", 2),
            ("ok", 4),
            ("ok", 6),
            ("ok", 1),
            ("ok", 2),
            ("ok", 3),
        ],
    },
    "deactivation_and_failed_activation": {
        "events": 73,
        "now": 0.09999999999999999,
        "stats": {
            "asks": 7,
            "replies": 5,
            "activations_created": 4,
            "activations_collected": 1,
            "activation_failures": 1,
            "last_error": "activation Fragile/f: activation refused",
            "failed_keys": ["Fragile/f"],
        },
        "outcomes": [
            ("ok", 0),
            ("ok", 1),
            ("ok", 2),
            ("ok", 9),
            ("RuntimeError", "activation refused"),
            ("RuntimeError", "activation refused"),
            ("ok", "pong"),
        ],
    },
    "interval_flush": {
        "events": 549,
        "now": 2.5099999999999905,
        "stats": {
            "asks": 4,
            "replies": 4,
            "activations_created": 1,
        },
        "outcomes": [
            ("ok", 0),
            ("ok", 1),
            ("ok", 3),
            ("ok", None),
            ("ok", 13),
        ],
    },
    "lapsed_deadline": {
        "events": 28,
        "now": 0.060000000000000005,
        "stats": {
            "asks": 3,
            "replies": 2,
            "activations_created": 1,
            "deadlines_exceeded": 1,
        },
        "outcomes": [
            ("ok", 0.05),
            ("DeadlineExceededError", "Worker/w.work() missed its deadline (t=0.010)"),
            ("ok", 4),
        ],
    },
    "missing_and_non_coroutine": {
        "events": 22,
        "now": 0.01,
        "stats": {
            "asks": 4,
            "replies": 4,
            "errors": 2,
            "activations_created": 1,
            "last_error": (
                "Worker/w.plain(): object str can't be used in 'await' expression"
            ),
        },
        "outcomes": [
            ("ActorMethodError", "Worker has no method 'nope'"),
            ("TypeError", "object str can't be used in 'await' expression"),
            ("ok", None),
            ("ok", 2),
        ],
    },
    "park_rejoin_and_overflow": {
        "events": 44,
        "now": 0.04,
        "stats": {
            "asks": 7,
            "replies": 4,
            "errors": 3,
            "dropped_messages": 2,
            "activations_created": 3,
            "silos_quarantined": 1,
            "silos_rejoined": 1,
            "last_error": "Worker/w.work(): silo 'silo-0' is not responding",
        },
        "outcomes": [
            ("ok", 0),
            ("ok", 1),
            ("MailboxOverflowError", "queue full (maxsize=1); item dropped by caller"),
            ("MailboxOverflowError", "queue full (maxsize=1); item dropped by caller"),
            ("ok", [("SiloUnavailableError", "silo 'silo-0' is not responding"), 6]),
            ("ok", 2),
        ],
    },
    "rejected_write_through": {
        "events": 24,
        "now": 0.01,
        "stats": {
            "asks": 4,
            "replies": 4,
            "errors": 2,
            "activations_created": 1,
            "last_error": (
                "Journal/j.note(): provisioned write capacity exceeded (need 1.00 "
                "units, retry in 0.996s)"
            ),
        },
        "outcomes": [
            ("ok", 1),
            (
                "ThrottledError",
                (
                    "provisioned write capacity exceeded (need 1.00 units, retry in "
                    "0.998s)"
                ),
            ),
            ("ok", 2),
            (
                "ThrottledError",
                (
                    "provisioned write capacity exceeded (need 1.00 units, retry in "
                    "0.996s)"
                ),
            ),
        ],
    },
    "suspends_on_sub_ask": {
        "events": 30,
        "now": 0.01,
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 2,
        },
        "outcomes": [
            ("ok", 0),
            ("ok", 2),
            ("ok", 4),
        ],
    },
    "transaction_snapshot_restore": {
        "events": 77,
        "now": 0.03,
        "stats": {
            "asks": 13,
            "replies": 13,
            "errors": 1,
            "activations_created": 2,
            "last_error": "Account/a.withdraw(): insufficient funds",
        },
        "outcomes": [
            ("ok", [70, 30]),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_is_pinned(name):
    assert record(name) == PINNED[name]
