"""Property-based tests: migration is lossless under sustained traffic + chaos.

The elasticity acceptance bar (ISSUE 5): under arbitrary interleavings of
sustained ingest, live migrations, graceful drains, and network chaos, every
message is delivered exactly once, durable state round-trips byte-identical
through the persistence path, and per-message deadline/retry semantics are
unchanged.  Chaos here is ``extra_delay`` (reordering in time, nothing
dropped or duplicated) so the exactly-once assertions stay honest — loss and
duplication faults are the retry layer's test surface, not migration's.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.runtime import (
    Actor,
    ActorKey,
    AodbRuntime,
    RetryPolicy,
    RuntimeConfig,
    WritePolicy,
)


class Journal(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def append(self, seq):
        entries = self.state.setdefault("entries", [])
        entries.append(seq)
        self.mark_dirty()
        return len(entries)

    async def entries(self):
        return list(self.state.get("entries", []))


def build_runtime(seed=0, silos=3):
    sched = Scheduler()
    config = RuntimeConfig(
        default_method_cost=0.0,
        activation_cost=0.0,
        seed=seed,
        idle_timeout=1000.0,
        collection_interval=100.0,
    )
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(0.0005))
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    runtime.register_actor(Journal)
    return sched, runtime


@given(
    actors=st.integers(min_value=1, max_value=4),
    messages=st.integers(min_value=5, max_value=40),
    migrations=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # which actor to move
            st.integers(min_value=0, max_value=2),  # target silo
            st.floats(min_value=0.0, max_value=0.05),  # when to move
        ),
        max_size=6,
    ),
    delay=st.floats(min_value=0.0, max_value=0.01),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_migrations_under_ingest_and_chaos_lose_nothing(
    actors, messages, migrations, delay, seed
):
    """Exactly-once delivery: every appended sequence appears exactly once,
    in order, no matter how migrations and delayed messages interleave."""
    sched, runtime = build_runtime(seed=seed)
    if delay:
        runtime.network.inject_faults(
            NetworkFaultInjector(random.Random(seed), extra_delay=delay)
        )

    async def mover(actor_index, target, at):
        await sched.sleep(at)
        key = ActorKey("Journal", f"j{actor_index % actors}")
        try:
            await runtime.migrate(key, f"silo-{target}")
        except Exception:
            pass  # unusable target / nothing live: still must lose nothing

    async def main():
        for index, (actor_index, target, at) in enumerate(migrations):
            sched.spawn(mover(actor_index, target, at), name=f"mover-{index}")
        futures = []
        for seq in range(messages):
            ref = runtime.ref("Journal", f"j{seq % actors}")
            futures.append(ref.ask("append", seq))
        await sched.gather(futures)
        await sched.sleep(0.2)  # let stragglers and movers finish
        observed = {}
        for a in range(actors):
            observed[a] = await runtime.ref("Journal", f"j{a}").entries()
        return observed

    observed = sched.run_until_complete(main())
    for a in range(actors):
        expected = [seq for seq in range(messages) if seq % actors == a]
        # Sequential per-sender asks from one client: exactly once AND in
        # submission order, even across migrations.
        assert sorted(observed[a]) == expected
    assert runtime.stats.dropped_messages == 0


@given(
    writes=st.lists(st.integers(min_value=-5, max_value=99), min_size=1, max_size=20),
    hops=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_durable_state_round_trips_byte_identical(writes, hops, seed):
    """State after N migrations equals state after none — the persistence
    path is the same one deactivation uses, so snapshots are identical."""
    sched, runtime = build_runtime(seed=seed)
    key = ActorKey("Journal", "j0")

    async def main():
        ref = runtime.ref("Journal", "j0")
        for value in writes:
            await ref.append(value)
        silos = [f"silo-{i}" for i in range(3)]
        here = runtime.directory.lookup(key)
        for hop in range(hops):
            target = silos[(silos.index(here) + 1) % len(silos)]
            assert await runtime.migrate(key, target)
            here = target
        stored = await runtime.grain_storage.get(key.storage_key())
        return stored.value, await ref.entries()

    stored, live = sched.run_until_complete(main())
    assert stored == {"entries": list(writes)}
    assert live == list(writes)
    assert runtime.stats.migrations == hops


@given(
    messages=st.integers(min_value=3, max_value=25),
    move_at=st.floats(min_value=0.0, max_value=0.02),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_deadline_retry_semantics_survive_migration(messages, move_at, seed):
    """Resilient asks racing a migration neither retry nor trip deadlines:
    the move looks exactly like an ordinary (fast) deactivation."""
    sched, runtime = build_runtime(seed=seed)
    policy = RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0)
    key = ActorKey("Journal", "j0")

    async def mover():
        await sched.sleep(move_at)
        source = runtime.directory.lookup(key)
        if source is None:
            return
        target = "silo-1" if source != "silo-1" else "silo-2"
        await runtime.migrate(key, target)

    async def main():
        ref = runtime.ref("Journal", "j0")
        await ref.append(-1)
        sched.spawn(mover(), name="mover")
        futures = [
            ref.ask("append", seq, deadline=10.0, retry=policy)
            for seq in range(messages)
        ]
        await sched.gather(futures)
        return await ref.entries()

    entries = sched.run_until_complete(main())
    assert sorted(entries) == sorted([-1] + list(range(messages)))
    assert runtime.stats.calls_retried == 0
    assert runtime.stats.deadlines_exceeded == 0
    assert runtime.stats.errors == 0


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_elastic_trajectories_are_deterministic(seed):
    """Same seed, same migrations, same chaos => identical trajectories."""

    def run_once():
        sched, runtime = build_runtime(seed=seed)
        runtime.network.inject_faults(
            NetworkFaultInjector(random.Random(seed), extra_delay=0.002)
        )

        async def mover():
            await sched.sleep(0.01)
            for a in range(2):
                key = ActorKey("Journal", f"j{a}")
                source = runtime.directory.lookup(key)
                if source is not None:
                    target = "silo-2" if source != "silo-2" else "silo-0"
                    await runtime.migrate(key, target)

        async def main():
            sched.spawn(mover(), name="mover")
            futures = [
                runtime.ref("Journal", f"j{i % 2}").ask("append", i)
                for i in range(16)
            ]
            await sched.gather(futures)
            entries = []
            for a in range(2):
                entries.append(await runtime.ref("Journal", f"j{a}").entries())
            return sched.now, entries, runtime.stats.migrations

        return sched.run_until_complete(main())

    assert run_once() == run_once()
