"""Fence tokens on ``put`` / ``put_many``: one contract, every store layer.

The fence rides the write: ``put(key, value, expected_etag, fence)`` and
``put_many`` over ``(key, value, expected_etag, fence)`` entries.  Every
store must order a write's effects the same way — capacity charge → round
trip → fence admission → etag check → write — so a stale writer pays for
its round trip, bounces with :class:`FencedWriteError`, and never counts
as a write.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConditionalCheckFailedError, FencedWriteError
from repro.net import ConstantLatency, Network
from repro.obs.recorder import FlightRecorder
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import ChaosKVStore, InMemoryKVStore, ProvisionedKVStore
from repro.storage.groupcommit import GroupCommitWriter

ROUND_TRIP = 0.001


@pytest.fixture(params=["memory", "provisioned", "chaos"])
def layer(request, sched):
    """A store plus what its layer adds: the backing store that counts
    ``writes`` and the per-request round trip it charges."""
    if request.param == "memory":
        store = InMemoryKVStore()
        return SimpleNamespace(store=store, backing=store, round_trip=0.0)
    if request.param == "provisioned":
        store = ProvisionedKVStore(
            sched,
            read_capacity_units=100.0,
            write_capacity_units=100.0,
            latency=ConstantLatency(ROUND_TRIP),
        )
        return SimpleNamespace(store=store, backing=store, round_trip=ROUND_TRIP)
    inner = InMemoryKVStore()
    return SimpleNamespace(
        store=ChaosKVStore(sched, inner), backing=inner, round_trip=0.0
    )


def run(sched, coro):
    return sched.run_until_complete(coro)


def test_put_admits_monotonic_fences(sched, layer):
    store = layer.store

    async def main():
        await store.put("k", {"v": 1}, fence=1)
        await store.put("k", {"v": 2}, expected_etag=1, fence=2)
        # Re-using the current fence is fine (same writer, many flushes).
        await store.put("k", {"v": 3}, expected_etag=2, fence=2)
        return (await store.get("k")).value

    assert run(sched, main()) == {"v": 3}
    assert store.fenced_writes == 0
    assert layer.backing.writes == 3


def test_stale_fence_is_rejected_and_counted(sched, layer):
    store = layer.store

    async def main():
        await store.put("k", {"v": "new"}, fence=7)
        with pytest.raises(FencedWriteError):
            await store.put("k", {"v": "zombie"}, fence=3)
        return (await store.get("k")).value

    assert run(sched, main()) == {"v": "new"}
    assert store.fenced_writes == 1
    # A bounce is not a write ...
    assert layer.backing.writes == 1
    # ... but the stale writer still paid for its round trip (and capacity).
    assert sched.now == pytest.approx(3 * layer.round_trip)
    if isinstance(store, ProvisionedKVStore):
        assert store.wcu_consumed == pytest.approx(2.0)


class Grain(Actor):
    durable = True
    write_policy = WritePolicy.MANUAL

    async def fence(self):
        return self.context.fence

    async def write(self, value):
        self.state["v"] = value
        await self.write_state()


def test_fence_bounce_is_journalled(sched):
    # The activation stamps the fence, so it records the bounce: into the
    # storage ring of the recorder attached to its clock, whichever store
    # layer (wrapped or not) rejected the write.
    recorder = FlightRecorder(sched)
    sched.recorder = recorder  # what FlightRecorder.attach sets
    stores = [
        InMemoryKVStore(),
        ProvisionedKVStore(sched, latency=ConstantLatency(ROUND_TRIP)),
        ChaosKVStore(sched, InMemoryKVStore()),
    ]
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)

    async def main():
        fences = []
        for index, store in enumerate(stores):
            network = Network(sched, lan=ConstantLatency(0.0))
            runtime = AodbRuntime(
                sched, config=config, grain_storage=store, network=network
            )
            runtime.add_silo(f"s{index}", cores=1)
            runtime.register_actor(Grain)
            ref = runtime.ref("Grain", f"g{index}")
            fence = await ref.fence()
            await store.advance_fence(f"state/Grain/g{index}", fence + 4)
            with pytest.raises(FencedWriteError):
                await ref.write("zombie")
            fences.append(fence)
        return fences

    fences = run(sched, main())
    assert [
        (kind, a, b) for _t, kind, a, b in recorder.journal("storage").entries()
    ] == [
        ("fenced-bounce", f"state/Grain/g{index}", fence)
        for index, fence in enumerate(fences)
    ]


def test_fence_is_checked_before_the_etag(sched, layer):
    store = layer.store

    async def main():
        await store.put("k", {"v": 1}, fence=5)
        # Stale fence AND wrong etag: the fence verdict wins.
        with pytest.raises(FencedWriteError):
            await store.put("k", {"v": 2}, expected_etag=99, fence=4)
        # Current fence, wrong etag: an ordinary conflict, counted as a
        # write attempt but not as a fence bounce.
        with pytest.raises(ConditionalCheckFailedError):
            await store.put("k", {"v": 2}, expected_etag=99, fence=5)

    run(sched, main())
    assert store.fenced_writes == 1
    assert layer.backing.writes == 2


def test_advance_fence_rejects_writes_that_land_later(sched, layer):
    # The successor bumps the floor at load time, *before* writing anything:
    # a zombie flush that lands in between must still bounce.
    store = layer.store

    async def main():
        await store.put("k", {"v": "old"}, fence=1)
        # advance_fence is control-plane: no write, no round trip, no units.
        before = (sched.now, layer.backing.writes, getattr(store, "wcu_consumed", 0))
        await store.advance_fence("k", 5)
        after = (sched.now, layer.backing.writes, getattr(store, "wcu_consumed", 0))
        assert after == before
        with pytest.raises(FencedWriteError):
            await store.put("k", {"v": "zombie"}, fence=1)
        await store.put("k", {"v": "successor"}, expected_etag=1, fence=5)
        return (await store.get("k")).value

    assert run(sched, main()) == {"v": "successor"}
    assert store.fenced_writes == 1


def test_unfenced_puts_are_unaffected(sched, layer):
    store = layer.store

    async def main():
        await store.put("k", {"v": 1}, fence=9)
        # fence=None writers (fencing disabled) bypass the floor entirely.
        await store.put("k", {"v": 2}, expected_etag=1)
        await store.put("k", {"v": 3}, expected_etag=2, fence=None)
        return (await store.get("k")).value

    assert run(sched, main()) == {"v": 3}
    assert store.fenced_writes == 0


def test_put_many_isolates_rejections_in_a_mixed_batch(sched, layer):
    store = layer.store

    async def main():
        await store.put("d", {"v": 0})
        await store.advance_fence("b", 10)
        started = sched.now
        results = await store.put_many(
            [
                ("a", {"v": 1}, None, 2),
                ("b", {"v": 1}, None, 3),  # stale: floor is 10
                ("c", {"v": 1}, None, None),  # unfenced rider
                ("d", {"v": 1}, 7, None),  # etag conflict
                ("e", {"v": 1}, 0, 1),
            ]
        )
        return results, sched.now - started

    results, elapsed = run(sched, main())
    # Positional: each entry's own verdict, nothing poisoned by a neighbour.
    assert results[0] == 1 and results[2] == 1 and results[4] == 1
    assert isinstance(results[1], FencedWriteError)
    assert isinstance(results[3], ConditionalCheckFailedError)
    assert store.fenced_writes == 1
    assert run(sched, store.try_get("b")) is None
    # The bounce never reached the write path: 1 setup put + 4 batch entries.
    assert layer.backing.writes == 5
    if isinstance(store, ProvisionedKVStore):
        # Every entry — the bounced one included — paid its write units,
        # and the whole batch shared one round trip.
        assert elapsed == pytest.approx(ROUND_TRIP)
        assert store.wcu_consumed == pytest.approx(1.0 + 5.0)
        assert store.write_batches == 1
        assert store.batched_round_trips_saved == 4


def test_group_commit_surfaces_fence_rejection_per_ticket(sched, layer):
    store = layer.store
    writer = GroupCommitWriter(store, sched, max_batch=8, max_delay=0.0)

    async def main():
        await store.advance_fence("stale", 10)
        ok = writer.put("fresh", {"v": 1}, fence=3)
        bad = writer.put("stale", {"v": 1}, fence=2)
        plain = writer.put("plain", {"v": 1})
        etag = await ok
        with pytest.raises(FencedWriteError):
            await bad
        return etag, await plain

    assert run(sched, main()) == (1, 1)
    assert writer.batches == 1
    assert (run(sched, store.get("fresh"))).value == {"v": 1}
    assert run(sched, store.try_get("stale")) is None
