"""Unit tests for serialization helpers."""

from collections import OrderedDict

import pytest

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform, channel_id_for, sensor_id_for
from repro.storage import (
    InMemoryKVStore,
    NotSerializableError,
    ensure_serializable,
    estimate_size,
    serde,
    snapshot,
)


def test_snapshot_isolates_mutable_values():
    original = {"list": [1, 2]}
    copy_ = snapshot(original)
    copy_["list"].append(3)
    assert original == {"list": [1, 2]}


def test_snapshot_passes_scalars_through():
    for value in (None, True, 42, 3.14, "text", b"bytes"):
        assert snapshot(value) is value


def test_snapshot_passes_scalar_tuples_through():
    value = (1, "a", None)
    assert snapshot(value) is value


def test_snapshot_copies_tuples_with_mutable_members():
    value = ([1], "a")
    copied = snapshot(value)
    assert copied is not value
    copied[0].append(2)
    assert value == ([1], "a")


def test_ensure_serializable_accepts_plain_data():
    ensure_serializable({"k": [1, (2, 3)]})


def test_ensure_serializable_rejects_lambdas():
    with pytest.raises(NotSerializableError):
        ensure_serializable(lambda: None)


def test_ensure_serializable_rejects_open_files(tmp_path):
    with open(tmp_path / "f.txt", "w") as handle:
        with pytest.raises(NotSerializableError):
            ensure_serializable({"file": handle})


def test_estimate_size_grows_with_payload():
    small = estimate_size("x")
    large = estimate_size("x" * 10_000)
    assert large > small + 9_000


def test_estimate_size_rejects_unpicklable():
    with pytest.raises(NotSerializableError):
        estimate_size(lambda: None)


# -- perf guard: counts, not timings ------------------------------------------


@pytest.fixture
def deepcopy_calls(monkeypatch):
    """Count top-level entries into the ``copy.deepcopy`` fallback."""
    calls = []
    real = serde.deepcopy

    def counting(value, memo=None):
        calls.append(type(value).__name__)
        return real(value, memo)

    monkeypatch.setattr(serde, "deepcopy", counting)
    return calls


def stored_shm_documents():
    """Real state documents: one organization, one sensor, a channel whose
    window holds two sealed blocks and a near-full raw head."""
    sched = Scheduler()
    store = InMemoryKVStore()
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config, grain_storage=store)
    runtime.add_silo("silo-1", cores=2)
    platform = ShmPlatform(AodbDatabase(runtime))

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        channel_id = channel_id_for(sensor_id, 0)
        points = [(float(i), 20.0 + (i % 7) * 0.125) for i in range(3 * 256 - 1)]
        await platform.ingest(sensor_id, {channel_id: points})
        await runtime.shutdown_silo("silo-1")
        return channel_id, await store.scan("state/")

    channel_id, items = sched.run_until_complete(main())
    return channel_id, {key: item.value for key, item in items}


def test_plain_state_documents_never_reach_the_deepcopy_fallback(deepcopy_calls):
    channel_id, documents = stored_shm_documents()
    channel = documents[f"state/PhysicalSensorChannel/{channel_id}"]
    assert len(channel["tsdoc"]["blocks"]) == 2
    assert len(channel["tsdoc"]["head"]) == 255
    assert channel["change"]["count"] == 3 * 256 - 1
    assert any(key.startswith("state/Organization/") for key in documents)

    deepcopy_calls.clear()  # building the documents may have used it
    for document in documents.values():
        assert snapshot(document) == document
    assert deepcopy_calls == []


def test_other_types_take_the_deepcopy_fallback(deepcopy_calls):
    value = {"ordered": OrderedDict(a=[1])}
    copied = snapshot(value)
    assert deepcopy_calls == ["OrderedDict"]
    assert copied == value
    assert type(copied["ordered"]) is OrderedDict
    assert copied["ordered"]["a"] is not value["ordered"]["a"]
