"""Unit tests for the index registry and indexed actors."""

import pytest

from repro.aodb import MISSING, IndexRegistry
from repro.errors import IndexError_
from repro.runtime import Actor, ActorKey


class Cow(Actor):
    indexed_attributes = ("owner_id", "status")

    async def assign(self, owner_id):
        self.set_indexed("owner_id", owner_id)
        return True

    async def set_status(self, status):
        self.set_indexed("status", status)
        return True

    async def describe(self):
        return dict(self.state)


# -- registry unit tests ------------------------------------------------------


def test_declare_and_lookup_empty():
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    assert registry.lookup("Cow", "owner_id", "nobody") == []


def test_lookup_without_index_raises():
    registry = IndexRegistry()
    with pytest.raises(IndexError_):
        registry.lookup("Cow", "owner_id", "x")


def test_update_without_index_raises():
    registry = IndexRegistry()
    with pytest.raises(IndexError_):
        registry.update(ActorKey("Cow", "c1"), "owner_id", None, "f1")


def test_insert_move_and_remove():
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    key = ActorKey("Cow", "c1")
    registry.update(key, "owner_id", None, "f1")
    assert registry.lookup("Cow", "owner_id", "f1") == ["c1"]
    registry.update(key, "owner_id", "f1", "f2")
    assert registry.lookup("Cow", "owner_id", "f1") == []
    assert registry.lookup("Cow", "owner_id", "f2") == ["c1"]
    registry.update(key, "owner_id", "f2", None)
    assert registry.lookup("Cow", "owner_id", "f2") == []


def test_none_is_an_ordinary_indexable_value():
    """None round-trips through the index like any other value (regression:
    None used to be the "no value" sentinel and silently vanished)."""
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    key = ActorKey("Cow", "c1")
    registry.update(key, "owner_id", MISSING, None)
    assert registry.lookup("Cow", "owner_id", None) == ["c1"]
    # None -> value -> None keeps lookups consistent.
    registry.update(key, "owner_id", None, "f1")
    assert registry.lookup("Cow", "owner_id", None) == []
    assert registry.lookup("Cow", "owner_id", "f1") == ["c1"]
    registry.update(key, "owner_id", "f1", None)
    assert registry.lookup("Cow", "owner_id", "f1") == []
    assert registry.lookup("Cow", "owner_id", None) == ["c1"]


def test_missing_sentinel_insert_and_remove():
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    key = ActorKey("Cow", "c1")
    # MISSING in the old position inserts without touching any bucket.
    registry.update(key, "owner_id", MISSING, "f1")
    assert registry.lookup("Cow", "owner_id", "f1") == ["c1"]
    # MISSING in the new position removes without inserting anywhere.
    registry.update(key, "owner_id", "f1", MISSING)
    assert registry.lookup("Cow", "owner_id", "f1") == []
    # Legacy callers passing None as "no previous value" still work.
    registry.update(key, "owner_id", None, "f2")
    assert registry.lookup("Cow", "owner_id", "f2") == ["c1"]


def test_unhashable_value_rejected():
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    with pytest.raises(IndexError_):
        registry.update(ActorKey("Cow", "c1"), "owner_id", None, ["list"])


def test_lookup_many_intersects():
    registry = IndexRegistry()
    registry.declare("Cow", "owner_id")
    registry.declare("Cow", "status")
    for cow_id, owner, status in [
        ("c1", "f1", "alive"),
        ("c2", "f1", "slaughtered"),
        ("c3", "f2", "alive"),
    ]:
        key = ActorKey("Cow", cow_id)
        registry.update(key, "owner_id", None, owner)
        registry.update(key, "status", None, status)
    assert registry.lookup_many("Cow", {"owner_id": "f1", "status": "alive"}) == ["c1"]
    assert registry.lookup_many("Cow", {"owner_id": "f1"}) == ["c1", "c2"]
    assert registry.lookup_many("Cow", {"owner_id": "f3", "status": "alive"}) == []


def test_lookup_many_requires_criteria():
    registry = IndexRegistry()
    with pytest.raises(IndexError_):
        registry.lookup_many("Cow", {})


def test_extent_tracking():
    registry = IndexRegistry()
    registry.note_instance("Cow", "c2")
    registry.note_instance("Cow", "c1")
    registry.note_instance("Cow", "c1")  # idempotent
    assert registry.extent("Cow") == ["c1", "c2"]
    assert registry.extent_size("Cow") == 2
    assert registry.extent("Farmer") == []


# -- integration through actors --------------------------------------------------


def test_set_indexed_maintains_index_eagerly(sched, db):
    db.register_actor(Cow)

    async def main():
        await db.ref("Cow", "c1").assign("farmer-1")
        await db.ref("Cow", "c2").assign("farmer-1")
        await db.ref("Cow", "c3").assign("farmer-2")
        first = db.indexes.lookup("Cow", "owner_id", "farmer-1")
        await db.ref("Cow", "c2").assign("farmer-2")
        second = db.indexes.lookup("Cow", "owner_id", "farmer-1")
        return first, second

    first, second = sched.run_until_complete(main())
    assert first == ["c1", "c2"]
    assert second == ["c1"]


def test_set_indexed_none_round_trips(sched, db):
    """An attribute explicitly set to None is findable under None."""
    db.register_actor(Cow)

    async def main():
        await db.ref("Cow", "c1").assign(None)
        under_none = db.indexes.lookup("Cow", "owner_id", None)
        await db.ref("Cow", "c1").assign("farmer-1")
        after_assign = db.indexes.lookup("Cow", "owner_id", None)
        await db.ref("Cow", "c1").assign(None)
        back_to_none = db.indexes.lookup("Cow", "owner_id", None)
        return under_none, after_assign, back_to_none

    under_none, after_assign, back_to_none = sched.run_until_complete(main())
    assert under_none == ["c1"]
    assert after_assign == []
    assert back_to_none == ["c1"]


def test_set_indexed_requires_declaration(sched, db):
    class Sloppy(Actor):
        indexed_attributes = ()

        async def oops(self):
            self.set_indexed("anything", 1)

    db.register_actor(Sloppy)

    async def main():
        from repro.errors import ActorMethodError

        with pytest.raises(ActorMethodError):
            await db.ref("Sloppy", "s").oops()

    sched.run_until_complete(main())


def test_activation_populates_extent(sched, db):
    db.register_actor(Cow)

    async def main():
        await db.ref("Cow", "a").describe()
        await db.ref("Cow", "b").describe()
        return db.indexes.extent("Cow")

    assert sched.run_until_complete(main()) == ["a", "b"]
