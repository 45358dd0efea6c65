"""RedoJournal: bounded-loss write-ahead logging for lazy write policies."""

import pytest

from repro.net import ConstantLatency, Network
from repro.obs import MetricsRegistry
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import InMemoryKVStore, RedoJournal
from repro.storage.groupcommit import GroupCommitWriter


def run(sched, coro):
    return sched.run_until_complete(coro)


def test_append_and_replay_newest_matching_record(sched):
    journal = RedoJournal(sched)

    async def main():
        await journal.append("k", {"n": 1}, base_etag=3, fence=2)
        await journal.append("k", {"n": 2}, base_etag=3, fence=2)
        return journal.replay_for("k", stored_etag=3, fence=5)

    record = run(sched, main())
    assert record is not None
    assert record.document == {"n": 2}
    assert journal.appends == 2
    assert journal.replayed_records == 1


def test_replay_requires_matching_base_etag(sched):
    # A record based on etag 3 is a stale branch if the store now holds
    # etag 4 — replaying it would resurrect overwritten state.
    journal = RedoJournal(sched)
    run(sched, journal.append("k", {"n": 1}, base_etag=3, fence=1))
    assert journal.replay_for("k", stored_etag=4, fence=9) is None
    assert journal.replayed_records == 0


def test_replay_never_applies_records_from_a_newer_fence(sched):
    journal = RedoJournal(sched)
    run(sched, journal.append("k", {"n": 1}, base_etag=0, fence=7))
    # A successor with fence 5 must not apply a fence-7 record.
    assert journal.replay_for("k", stored_etag=0, fence=5) is None
    assert journal.replay_for("k", stored_etag=0, fence=7) is not None


def test_identical_tail_documents_are_deduplicated(sched):
    journal = RedoJournal(sched)

    async def main():
        await journal.append("k", {"n": 1}, base_etag=0, fence=1)
        await journal.append("k", {"n": 1}, base_etag=0, fence=1)  # same bytes
        await journal.append("k", {"n": 1}, base_etag=0, fence=2)  # new fence

    run(sched, main())
    assert journal.appends == 2
    assert journal.skipped_appends == 1
    assert journal.pending_records("k") == 2


def test_fence_floor_blocks_zombie_appends(sched):
    journal = RedoJournal(sched)
    journal.advance_fence("k", 10)
    record = run(sched, journal.append("k", {"n": 1}, base_etag=0, fence=3))
    assert record is None
    assert journal.appends == 0
    assert journal.skipped_appends == 1
    # The successor itself still journals fine.
    assert run(sched, journal.append("k", {"n": 2}, base_etag=0, fence=10))


def test_truncate_drops_records_after_flush(sched):
    journal = RedoJournal(sched)

    async def main():
        await journal.append("a", {"n": 1}, base_etag=0, fence=1)
        await journal.append("a", {"n": 2}, base_etag=0, fence=1)
        await journal.append("b", {"n": 1}, base_etag=0, fence=1)

    run(sched, main())
    assert journal.truncate("a", journal.last_seq, 1) == 2
    assert journal.truncated_records == 2
    assert journal.pending_records() == 1
    assert journal.replay_for("a", stored_etag=0, fence=1) is None


def test_truncate_keeps_records_newer_than_the_flush(sched):
    journal = RedoJournal(sched)
    run(sched, journal.append("a", {"n": 1}, base_etag=0, fence=1))
    covered = journal.last_seq  # a flush is issued here
    run(sched, journal.append("a", {"n": 2}, base_etag=0, fence=1))
    assert journal.truncate("a", covered, 1) == 1  # the flush landed at etag 1
    assert journal.pending_records("a") == 1
    # The survivor is re-based onto the landed etag, which a crash re-loads.
    assert journal.replay_for("a", stored_etag=0, fence=1) is None
    assert journal.replay_for("a", stored_etag=1, fence=1).document == {"n": 2}
    assert journal.truncate("a", journal.last_seq, 2) == 1
    assert journal.pending_records() == 0


# -- replay isolation: the recovered document shares nothing with the record --

GRAIN = ActorKey("Structure", "bridge-1")


class Structure(Actor):
    """A durable grain that writes only when told (MANUAL): neither the redo
    pump nor its deactivation touches the journal."""

    durable = True
    write_policy = WritePolicy.MANUAL

    async def touch(self):
        pass


@pytest.fixture
def journaled(sched):
    """A one-silo runtime whose redo journal holds one record for GRAIN."""
    store = InMemoryKVStore()
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, redo_lag=3600.0
    )
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, grain_storage=store, network=network)
    runtime.add_silo("s1", cores=1)
    runtime.register_actor(Structure)
    record = run(
        sched,
        runtime.redo_journal.append(
            GRAIN.storage_key(), {"sensors": {"a": 1}}, base_etag=0
        ),
    )
    return runtime, store, record


def recovered_state(sched, runtime):
    """A fresh activation's state, loaded (and so replayed) from the journal;
    the activation is deactivated again (without a write: MANUAL)."""

    async def main():
        await runtime.ref("Structure", GRAIN.actor_id).touch()
        activation = runtime.silo("s1").get_activation(GRAIN)
        assert activation.dirty  # replayed, not yet written
        await runtime.deactivate("Structure", GRAIN.actor_id)
        return activation.instance.state

    replayed = runtime.redo_journal.replayed_records
    state = run(sched, main())
    assert runtime.redo_journal.replayed_records == replayed + 1
    return state


def test_replayed_state_does_not_alias_the_journal_record(sched, journaled):
    runtime, _, record = journaled
    state = recovered_state(sched, runtime)
    state["sensors"]["b"] = 2
    assert record.document == {"sensors": {"a": 1}}


def test_change_after_replay_is_journaled_not_deduplicated(sched, journaled):
    # With the record aliased, the tail "already equals" the mutated document
    # and the unfenced append is skipped: the durable wal/ copy never sees an
    # acknowledged change.
    runtime, store, _ = journaled
    journal = runtime.redo_journal
    state = recovered_state(sched, runtime)
    state["sensors"]["b"] = 2
    again = run(sched, journal.append(GRAIN.storage_key(), state, base_etag=0))
    assert again is not None
    assert journal.skipped_appends == 0
    durable = run(sched, store.get(f"wal/{GRAIN.storage_key()}/{again.seq}"))
    assert durable.value["document"] == {"sensors": {"a": 1, "b": 2}}


def test_two_replays_of_one_record_share_no_container(sched, journaled):
    runtime, _, _ = journaled
    first = recovered_state(sched, runtime)
    second = recovered_state(sched, runtime)
    assert second == first
    assert second["sensors"] is not first["sensors"]


def test_durable_copies_land_under_wal_prefix(sched):
    store = InMemoryKVStore()
    journal = RedoJournal(sched, store=store)
    record = run(sched, journal.append("state/C/ch-1", {"n": 1}, base_etag=2, fence=4))
    item = run(sched, store.get(f"wal/state/C/ch-1/{record.seq}"))
    assert item.value["document"] == {"n": 1}
    assert item.value["base_etag"] == 2
    assert item.value["fence"] == 4


def test_appends_ride_the_group_commit_writer(sched):
    store = InMemoryKVStore()
    writer = GroupCommitWriter(store, sched, max_batch=8, max_delay=0.0)
    journal = RedoJournal(sched, store=store, writer=writer)

    async def main():
        await journal.append("k", {"n": 1}, base_etag=0, fence=1)

    run(sched, main())
    assert writer.batches >= 1
    assert run(sched, store.try_get("wal/k/1")) is not None


def test_register_metrics_exports_counters(sched):
    journal = RedoJournal(sched)
    registry = MetricsRegistry()
    journal.register_metrics(registry)
    run(sched, journal.append("k", {"n": 1}, base_etag=0, fence=1))
    journal.replay_for("k", stored_etag=0, fence=1)
    values = registry.snapshot()
    assert values["wal.appends"] == 1
    assert values["wal.replayed_records"] == 1
    assert values["wal.pending_records"] == 1
