"""Tests for incremental materialized views (registration, folds, reads)."""

import math

import pytest

from repro.aodb import ViewDef
from repro.aodb.views import GLOBAL_GROUP, VIEW_ACTOR_TYPE, shard_id
from repro.errors import QueryError
from repro.runtime import Actor


class Meter(Actor):
    """A minimal view source: folds its own stats and emits view deltas."""

    async def setup(self, org_id):
        self.state["org_id"] = org_id
        self.state["view_stats"] = [0, 0.0, math.inf, -math.inf]
        return True

    async def add(self, points):
        stats = self.state["view_stats"]
        for _ts, value in points:
            stats[0] += 1
            stats[1] += value
            stats[2] = min(stats[2], value)
            stats[3] = max(stats[3], value)
        views = self.context.runtime.database.views
        tickets = views.emit_from(self, {"c0": points})
        if tickets:
            await self.context.runtime.scheduler.gather(tickets)
        return len(points)

    async def view_sample(self, group_by=None):
        stats = self.state["view_stats"]
        group = GLOBAL_GROUP if group_by is None else str(self.state.get(group_by))
        return {
            "group": group,
            "entity": self.actor_id,
            "count": stats[0],
            "total": stats[1],
            "vmin": stats[2],
            "vmax": stats[3],
        }


@pytest.fixture
def meters(sched, db):
    db.register_actor(Meter)

    async def setup():
        for meter_id, org in (("m1", "A"), ("m2", "A"), ("m3", "B")):
            await db.ref("Meter", meter_id).setup(org)

    sched.run_until_complete(setup())
    return db


def feed(sched, db, meter_id, points):
    async def main():
        return await db.ref("Meter", meter_id).add(points)

    return sched.run_until_complete(main())


# -- definitions and registration ---------------------------------------------


def test_viewdef_validation_rejects_bad_shapes():
    with pytest.raises(QueryError, match="kind"):
        ViewDef(name="v", source="Meter", kind="median").validate()
    with pytest.raises(QueryError, match="name"):
        ViewDef(name="v::x", source="Meter").validate()
    with pytest.raises(QueryError, match="name"):
        ViewDef(name="", source="Meter").validate()
    with pytest.raises(QueryError, match="window_seconds"):
        ViewDef(name="v", source="Meter", kind="window", window_seconds=0).validate()
    with pytest.raises(QueryError, match="rank_by"):
        ViewDef(name="v", source="Meter", kind="topk", rank_by="median").validate()
    with pytest.raises(QueryError, match="k"):
        ViewDef(name="v", source="Meter", kind="topk", k=0).validate()


def test_register_rejects_unknown_source_and_duplicates(meters):
    with pytest.raises(Exception):
        meters.register_view(ViewDef(name="v", source="NoSuchType"))
    meters.register_view(ViewDef(name="v", source="Meter"))
    with pytest.raises(QueryError, match="already registered"):
        meters.register_view(ViewDef(name="v", source="Meter"))
    assert meters.views.names() == ["v"]
    assert meters.views.registered("v")
    assert meters.views.has_views_for("Meter")
    assert not meters.views.has_views_for("Organization")


def test_view_handle_requires_name_or_source(meters):
    with pytest.raises(QueryError, match="no registered view"):
        meters.view("missing")
    handle = meters.view("missing", source="Meter", group_by="org_id")
    assert handle.materialized is False
    meters.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))
    assert meters.view("strain").materialized is True


# -- folds and reads -----------------------------------------------------------


def test_aggregate_view_folds_per_group(sched, meters):
    meters.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))
    feed(sched, meters, "m1", [(0.0, 1.0), (0.1, 3.0)])
    feed(sched, meters, "m2", [(0.2, 5.0)])
    feed(sched, meters, "m3", [(0.3, 100.0)])
    handle = meters.view("strain")

    async def read(group):
        return await handle.get(group)

    a = sched.run_until_complete(read("A"))
    b = sched.run_until_complete(read("B"))
    assert a == {
        "count": 3, "total": 9.0, "mean": 3.0, "min": 1.0, "max": 5.0, "group": "A"
    }
    assert b["count"] == 1 and b["mean"] == 100.0
    # Drained: no deltas buffered or in flight, staleness reads zero.
    assert meters.views.pending_deltas() == 0
    assert meters.views.staleness_seconds() == 0.0
    assert meters.views.deltas_emitted() >= 3
    assert meters.views.flushes() >= 1


def test_global_group_when_group_by_is_none(sched, meters):
    meters.register_view(ViewDef(name="everything", source="Meter"))
    feed(sched, meters, "m1", [(0.0, 2.0)])
    feed(sched, meters, "m3", [(0.0, 4.0)])

    async def read():
        return await meters.view("everything").get()

    summary = sched.run_until_complete(read())
    assert summary["group"] == GLOBAL_GROUP
    assert summary["count"] == 2 and summary["mean"] == 3.0


def test_window_view_buckets_and_eviction(sched, meters):
    meters.register_view(
        ViewDef(
            name="rollup",
            source="Meter",
            group_by="org_id",
            kind="window",
            window_seconds=1.0,
            max_buckets=2,
        )
    )
    feed(sched, meters, "m1", [(0.5, 1.0), (1.5, 2.0)])
    feed(sched, meters, "m1", [(2.5, 3.0)])

    async def read():
        return await meters.view("rollup").buckets("A")

    buckets = sched.run_until_complete(read())
    # max_buckets=2: the oldest bucket (0.0) was evicted.
    assert [b[0] for b in buckets] == [1.0, 2.0]
    assert buckets[0][1]["count"] == 1 and buckets[0][1]["mean"] == 2.0


def test_topk_view_ranks_entities(sched, meters):
    meters.register_view(
        ViewDef(
            name="hot",
            source="Meter",
            group_by="org_id",
            kind="topk",
            k=2,
            rank_by="mean",
        )
    )
    feed(sched, meters, "m1", [(0.0, 10.0)])
    feed(sched, meters, "m2", [(0.0, 30.0)])

    async def read():
        return await meters.view("hot").top("A")

    ranked = sched.run_until_complete(read())
    assert [row["entity"] for row in ranked] == ["m2", "m1"]
    assert ranked[0]["mean"] == 30.0


def test_pull_fallback_matches_materialized(sched, meters):
    meters.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))
    feed(sched, meters, "m1", [(0.0, 2.0), (0.1, 4.0)])
    feed(sched, meters, "m2", [(0.2, 6.0)])
    pull = meters.view("scan", source="Meter", group_by="org_id")

    async def read():
        materialized = await meters.view("strain").get("A")
        scanned = await pull.get("A")
        return materialized, scanned

    materialized, scanned = sched.run_until_complete(read())
    assert materialized == scanned


# -- exactly-once: sequencing and dedup ----------------------------------------


def test_apply_deltas_is_idempotent_by_stream_sequence(sched, meters):
    meters.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))
    shard = shard_id("strain", "A")
    entries = [("A", "m1", 0.0, 2, 6.0, 1.0, 5.0)]

    async def main():
        ref = meters.ref(VIEW_ACTOR_TYPE, shard)
        first = await ref.ask("apply_deltas", "stream-x", 1, entries)
        replay = await ref.ask("apply_deltas", "stream-x", 1, entries)
        stale = await ref.ask("apply_deltas", "stream-x", 0, entries)
        fresh = await ref.ask("apply_deltas", "stream-x", 2, entries)
        summary = await ref.ask("get")
        accounting = await ref.ask("fold_accounting")
        return first, replay, stale, fresh, summary, accounting

    first, replay, stale, fresh, summary, accounting = sched.run_until_complete(main())
    assert first == {"applied": 2, "duplicate": False}
    assert replay == {"applied": 0, "duplicate": True}
    assert stale == {"applied": 0, "duplicate": True}
    assert fresh["duplicate"] is False
    # The duplicated and stale flushes folded nothing: 2 + 2 points, once.
    assert summary["count"] == 4
    assert accounting["duplicates"] == 2
    assert accounting["watermarks"] == {"stream-x": 2}


def test_emitting_insert_acks_cover_the_fold(sched, meters):
    """An acked add() is immediately visible — no read-your-writes gap."""
    meters.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))

    async def main():
        await meters.ref("Meter", "m1").add([(0.0, 7.0)])
        return await meters.view("strain").get("A")

    summary = sched.run_until_complete(main())
    assert summary["count"] == 1 and summary["total"] == 7.0
