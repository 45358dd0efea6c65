"""The aliasing contract at the storage/actor boundary.

``snapshot`` shares immutable leaves between the caller, the store and the
redo journal, so isolation rests on one property: no *mutable container* is
ever reachable from two sides.  This probe checks it where state crosses —
every store flavour, direct and group-committed writes, the journal, and a
whole actor round trip — by mutating one side at every depth and reading
the other.
"""

import pytest

from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import (
    Actor,
    ActorKey,
    AodbRuntime,
    RuntimeConfig,
    StateCell,
    WritePolicy,
)
from repro.storage import (
    ChaosKVStore,
    InMemoryKVStore,
    ProvisionedKVStore,
    RedoJournal,
)
from repro.storage.groupcommit import GroupCommitWriter


@pytest.fixture
def sched():
    return Scheduler()


def make_document():
    """A channel-shaped document with a mutable container at every depth."""
    return {
        "name": "ch-1",
        "config": {"unit": "mm", "thresholds": [1.0, 2.0]},
        "tsdoc": {
            "capacity": 4096,
            "block_size": 256,
            "blocks": [(b"\x01\x02", b"\x03", 2, 0.0, 1.0)],
            "head": [(10.0, 0.5), (11.0, 0.75)],
        },
        "mixed": ("tag", [1, 2]),
    }


def mutate_everywhere(document):
    """Change ``document`` at the top, in a nested dict, in the tsdoc head
    list, and in a list that sits inside a tuple."""
    document["added"] = True
    document["config"]["unit"] = "inch"
    document["config"]["thresholds"].append(3.0)
    document["tsdoc"]["head"].append((12.0, 1.0))
    document["tsdoc"]["blocks"].clear()
    document["mixed"][1].append(3)


STORES = {
    "memory": lambda sched: InMemoryKVStore(),
    "provisioned": lambda sched: ProvisionedKVStore(sched),
    "chaos": lambda sched: ChaosKVStore(sched, InMemoryKVStore()),
}


@pytest.fixture(params=sorted(STORES))
def store(request, sched):
    return STORES[request.param](sched)


@pytest.fixture(params=["direct", "group-commit"])
def put(request, sched, store):
    """The write path under test: ``await put(key, value)``."""
    if request.param == "direct":
        return store.put
    return GroupCommitWriter(store, sched, max_batch=4, max_delay=0.001).put


def test_mutating_the_written_document_does_not_reach_the_store(sched, store, put):
    document = make_document()

    async def main():
        await put("k", document)
        mutate_everywhere(document)
        return (await store.get("k")).value

    assert sched.run_until_complete(main()) == make_document()


@pytest.mark.parametrize("read", ["get", "try_get", "scan"])
def test_mutating_a_read_reaches_neither_store_nor_other_readers(
    sched, store, put, read
):
    async def read_value():
        if read == "scan":
            ((_, item),) = await store.scan("k")
        else:
            item = await getattr(store, read)("k")
        return item.value

    async def main():
        await put("k", make_document())
        first = await read_value()
        second = await read_value()
        mutate_everywhere(first)
        return second, await read_value()

    second, third = sched.run_until_complete(main())
    assert second == make_document()
    assert third == make_document()


def test_journal_record_and_replay_are_isolated_from_the_live_document(sched):
    store = InMemoryKVStore()
    journal = RedoJournal(sched, store=store)
    grain = ActorKey("Channel", "ch-1")
    document = make_document()

    async def main():
        record = await journal.append(grain.storage_key(), document, base_etag=0)
        mutate_everywhere(document)
        assert record.document == make_document()
        durable = await store.get(f"wal/{grain.storage_key()}/{record.seq}")
        assert durable.value["document"] == make_document()

        cell = StateCell(grain, store, journal=journal)
        await cell.load()
        mutate_everywhere(cell.document)
        assert record.document == make_document()
        other = StateCell(grain, store, journal=journal)
        await other.load()
        return other.document

    assert sched.run_until_complete(main()) == make_document()


class Probe(Actor):
    """Writes its state, then keeps mutating it without writing again."""

    durable = True
    write_policy = WritePolicy.MANUAL

    async def write_then_mutate(self):
        self.state.update(make_document())
        await self.write_state()
        mutate_everywhere(self.state)

    async def read(self):
        return self.state  # copied at the reply boundary


def test_actor_round_trip_reads_back_the_state_as_of_the_write(sched):
    network = Network(sched, lan=ConstantLatency(0.0))
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched, config=config, grain_storage=InMemoryKVStore(), network=network
    )
    runtime.add_silo("s1", cores=2)
    runtime.add_silo("s2", cores=2)
    runtime.register_actor(Probe)

    async def main():
        ref = runtime.ref("Probe", "p")
        await ref.write_then_mutate()
        dirty = await ref.read()
        # Crash the hosting silo: the unwritten mutations die with it and
        # the grain re-activates elsewhere from what write_state stored.
        runtime.crash_silo(runtime.directory.lookup(ActorKey("Probe", "p")))
        return dirty, await ref.read()

    dirty, recovered = sched.run_until_complete(main())
    assert dirty != make_document()
    assert recovered == make_document()
