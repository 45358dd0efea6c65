"""Incremental materialized views over the ingest stream.

The pull-based query layer (:mod:`repro.aodb.query`) decomposes a
declarative read into a fan-out over live actors — correct, but every
dashboard refresh re-reads every source actor, which collapses under the
paper's "98% inserts" workload the moment readers scale with writers.
Actor-oriented databases argue the runtime should instead maintain
*standing* query results as the writes flow through (ActorDB's
single-writer incremental view maintenance; Bernstein et al.'s indexing
and continuous-query directions).  This module is that feature:

- :class:`ViewDef` declares one standing query over a source actor type —
  a group key (a state attribute of the source), a fold kind
  (``aggregate`` | ``window`` | ``topk``) and a staleness bound;
- :class:`MaterializedView` is an ordinary durable virtual actor holding
  one *group's* fold state (actor id ``view::group``), so views shard by
  group key, place like any grain, and migrate/rebalance with the fleet;
- :class:`ViewRegistry` (``db.views``) hooks the ingestion write path:
  sources call :meth:`ViewRegistry.emit_from` with each freshly accepted
  batch, deltas coalesce per (source silo → shard) through a
  :class:`~repro.net.deltas.DeltaCoalescer` and ride the envelope batcher
  to the owning view actor, which folds them idempotently (per-stream
  sequence watermarks — the same watermark idea ``dedup_ingest`` uses);
- ``db.view(name)`` reads a registered view with **one ask per group
  asked**; ``db.view(name, source=..., group_by=...)`` falls back to a
  pull-based scan for unregistered shapes, folding ``view_sample`` rows
  client-side with the *same* fold code, so both paths agree bit-for-bit
  on aggregate results and the bench can compare their costs honestly.

Exactly-once, spelled out: delta emission is awaited by the source's
insert ack (at-least-once — lost flushes surface as retries of the same
sequence number), folding drops any sequence at or below the stream's
high-water mark (at-most-once), and flushes on one stream are chained in
FIFO order by the coalescer so the max-watermark test is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import QueryError
from ..runtime.actor import Actor, actor_method

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.futures import Future
    from ..net.deltas import DeltaCoalescer
    from .database import AodbDatabase

VIEW_ACTOR_TYPE = "MaterializedView"
VIEW_KINDS = ("aggregate", "window", "topk")
RANK_FIELDS = ("mean", "max", "min", "count", "total")

#: Group value used when a view has no group key (one global shard).
GLOBAL_GROUP = "all"


def shard_id(view_name: str, group: str) -> str:
    """The view actor id owning ``group`` of ``view_name``."""
    return f"{view_name}::{group}"


# -- fold algebra (shared by view actors and the pull fallback) ----------------


def empty_stats() -> list[float]:
    """A fresh ``[count, total, vmin, vmax]`` accumulator."""
    return [0, 0.0, math.inf, -math.inf]


def fold_stats(
    target: list[float], count: int, total: float, vmin: float, vmax: float
) -> None:
    """Merge one delta into an accumulator (commutative, associative)."""
    target[0] += count
    target[1] += total
    if vmin < target[2]:
        target[2] = vmin
    if vmax > target[3]:
        target[3] = vmax


def stats_summary(stats: list[float] | None) -> dict:
    """The reader-facing shape of one accumulator."""
    if not stats or not stats[0]:
        return {"count": 0, "total": 0.0, "mean": None, "min": None, "max": None}
    count = int(stats[0])
    return {
        "count": count,
        "total": stats[1],
        "mean": stats[1] / count,
        "min": stats[2],
        "max": stats[3],
    }


def rank_value(stats: list[float], rank_by: str) -> float:
    """The ordering key a top-K view ranks entities by."""
    if rank_by == "mean":
        return stats[1] / stats[0] if stats[0] else 0.0
    if rank_by == "max":
        return stats[3]
    if rank_by == "min":
        return stats[2]
    if rank_by == "count":
        return stats[0]
    return stats[1]  # total


@dataclass(frozen=True)
class ViewDef:
    """One standing query: what to fold, how to shard, how stale is OK.

    ``group_by`` names a state attribute of the source actor (``None``
    folds everything into the single :data:`GLOBAL_GROUP` shard).  For
    ``window`` views, points bucket by ``floor(ts / window_seconds)`` and
    the shard retains the ``max_buckets`` most recent buckets.  For
    ``topk`` views the shard keeps bounded per-entity stats — at most
    ``4k`` (min 32) entities, evicting the lowest-ranked — plus exact
    group totals, so the exactly-once accounting stays exact even when
    the entity table is pruned.  ``staleness_bound`` is the freshness
    contract the ``view-staleness`` SLO rule and the bench assert.
    """

    name: str
    source: str
    group_by: str | None = None
    kind: str = "aggregate"
    window_seconds: float = 60.0
    max_buckets: int = 16
    k: int = 10
    rank_by: str = "mean"
    staleness_bound: float = 1.0

    def validate(self) -> None:
        if not self.name or "::" in self.name:
            raise QueryError(f"view name {self.name!r} must be non-empty "
                             "and must not contain '::'")
        if self.kind not in VIEW_KINDS:
            raise QueryError(f"view {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "window" and self.window_seconds <= 0:
            raise QueryError(f"view {self.name!r}: window_seconds must be > 0")
        if self.max_buckets < 1:
            raise QueryError(f"view {self.name!r}: max_buckets must be >= 1")
        if self.k < 1:
            raise QueryError(f"view {self.name!r}: k must be >= 1")
        if self.rank_by not in RANK_FIELDS:
            raise QueryError(
                f"view {self.name!r}: unknown rank_by {self.rank_by!r}"
            )
        if self.staleness_bound <= 0:
            raise QueryError(f"view {self.name!r}: staleness_bound must be > 0")

    @property
    def entity_capacity(self) -> int:
        """Bounded top-K entity table size (pruned past this)."""
        return max(4 * self.k, 32)


class MaterializedView(Actor):
    """One group's fold state — an ordinary durable, migratable grain.

    State document:

    ``watermarks``
        per-stream flush high-water marks (the exactly-once ledger);
    ``totals``
        the group's exact ``[count, total, vmin, vmax]`` (all kinds);
    ``buckets``
        ``{bucket_start: stats}`` for ``window`` views (bounded);
    ``entities``
        ``{entity_id: stats}`` for ``topk`` views (bounded);
    ``applied`` / ``duplicates``
        flush accounting the bench's zero-loss invariant reads back.
    """

    durable = True

    @property
    def view_name(self) -> str:
        return self.actor_id.split("::", 1)[0]

    @property
    def group(self) -> str:
        parts = self.actor_id.split("::", 1)
        return parts[1] if len(parts) > 1 else GLOBAL_GROUP

    def _definition(self) -> ViewDef:
        database = self.context.runtime.database
        views = getattr(database, "views", None)
        if views is None:
            raise QueryError(
                f"view actor {self.actor_id!r} needs an AodbDatabase with a "
                "ViewRegistry on this runtime"
            )
        return views.definition(self.view_name)

    async def apply_deltas(
        self, stream: str, seq: int, entries: list[tuple]
    ) -> dict:
        """Fold one coalesced flush; idempotent by (stream, seq).

        ``entries`` rows are ``(group, entity, bucket, count, total, vmin,
        vmax)`` as shipped by :class:`~repro.net.deltas.DeltaCoalescer`.
        A duplicated delivery (network duplication, an at-least-once
        retry whose first attempt did land) is acknowledged without
        re-folding: the stream's sequences arrive in order (FIFO-chained
        flushes), so ``seq <= watermark`` identifies every replay.
        """
        watermarks = self.state.setdefault("watermarks", {})
        mark = watermarks.get(stream, 0)
        if seq <= mark:
            self.state["duplicates"] = self.state.get("duplicates", 0) + 1
            self.mark_dirty()
            return {"applied": 0, "duplicate": True}
        watermarks[stream] = seq
        defn = self._definition()
        totals = self.state.get("totals")
        if totals is None:
            totals = self.state["totals"] = empty_stats()
        applied = 0
        for _group, entity, bucket, count, total, vmin, vmax in entries:
            fold_stats(totals, count, total, vmin, vmax)
            applied += count
            if defn.kind == "window":
                self._fold_bucket(defn, bucket, count, total, vmin, vmax)
            elif defn.kind == "topk":
                self._fold_entity(defn, entity, count, total, vmin, vmax)
        self.state["applied"] = self.state.get("applied", 0) + applied
        self.mark_dirty()
        return {"applied": applied, "duplicate": False}

    def _fold_bucket(
        self,
        defn: ViewDef,
        bucket: float,
        count: int,
        total: float,
        vmin: float,
        vmax: float,
    ) -> None:
        buckets = self.state.setdefault("buckets", {})
        stats = buckets.get(bucket)
        if stats is None:
            stats = buckets[bucket] = empty_stats()
        fold_stats(stats, count, total, vmin, vmax)
        while len(buckets) > defn.max_buckets:
            del buckets[min(buckets)]  # evict the oldest window

    def _fold_entity(
        self,
        defn: ViewDef,
        entity: str,
        count: int,
        total: float,
        vmin: float,
        vmax: float,
    ) -> None:
        entities = self.state.setdefault("entities", {})
        stats = entities.get(entity)
        if stats is None:
            stats = entities[entity] = empty_stats()
        fold_stats(stats, count, total, vmin, vmax)
        if len(entities) > defn.entity_capacity:
            evict = min(
                entities,
                key=lambda e: (rank_value(entities[e], defn.rank_by), e),
            )
            del entities[evict]

    # -- reads (each one cheap, single-shard) ----------------------------------

    @actor_method(read_only=True)
    async def get(self) -> dict:
        """The group's aggregate — the dashboard's single cheap ask."""
        summary = stats_summary(self.state.get("totals"))
        summary["group"] = self.group
        return summary

    @actor_method(read_only=True)
    async def buckets(self, last: int | None = None) -> list:
        """Windowed rollup, oldest first: ``[bucket_start, summary]``."""
        buckets = self.state.get("buckets", {})
        ordered = sorted(buckets)
        if last is not None:
            ordered = ordered[-last:]
        return [[bucket, stats_summary(buckets[bucket])] for bucket in ordered]

    @actor_method(read_only=True)
    async def top(self, k: int | None = None) -> list:
        """Top-K entities by the view's rank field, best first."""
        defn = self._definition()
        entities = self.state.get("entities", {})
        ordered = sorted(
            entities,
            key=lambda e: (-rank_value(entities[e], defn.rank_by), e),
        )
        limit = defn.k if k is None else min(k, defn.k)
        return [
            {"entity": entity, **stats_summary(entities[entity])}
            for entity in ordered[:limit]
        ]

    @actor_method(read_only=True)
    async def fold_accounting(self) -> dict:
        """Exactly-once ledger: applied points, duplicate flushes, marks."""
        return {
            "group": self.group,
            "applied": self.state.get("applied", 0),
            "duplicates": self.state.get("duplicates", 0),
            "watermarks": dict(self.state.get("watermarks", {})),
            "count": int((self.state.get("totals") or [0])[0]),
        }


class MaterializedViewHandle:
    """Reads over a registered view: one ask per group asked."""

    materialized = True

    def __init__(self, database: "AodbDatabase", definition: ViewDef) -> None:
        self._db = database
        self.definition = definition

    def _ref(self, group: str | None):
        group = GLOBAL_GROUP if group is None else str(group)
        return self._db.runtime.ref(
            VIEW_ACTOR_TYPE, shard_id(self.definition.name, group)
        )

    async def get(self, group: str | None = None) -> dict:
        return await self._ref(group).ask("get")

    async def buckets(self, group: str | None = None, last: int | None = None):
        return await self._ref(group).ask("buckets", last)

    async def top(self, group: str | None = None, k: int | None = None):
        return await self._ref(group).ask("top", k)

    async def fold_accounting(self, group: str | None = None) -> dict:
        return await self._ref(group).ask("fold_accounting")


class PullViewHandle:
    """The fallback for unregistered shapes: scan-and-fold via the query
    layer.  One ask **per source actor in the extent** per read — the cost
    the materialized path exists to avoid — folding ``view_sample`` rows
    with the same algebra, so results agree with a registered view."""

    materialized = False

    def __init__(
        self, database: "AodbDatabase", source: str, group_by: str | None
    ) -> None:
        self._db = database
        self.source = source
        self.group_by = group_by

    async def get(self, group: str | None = None) -> dict:
        group = GLOBAL_GROUP if group is None else str(group)
        rows = await (
            self._db.query(self.source).call("view_sample", self.group_by).run()
        )
        stats = empty_stats()
        for row in rows:
            sample = row.value
            if sample["group"] != group or not sample["count"]:
                continue
            fold_stats(
                stats,
                sample["count"],
                sample["total"],
                sample["vmin"],
                sample["vmax"],
            )
        summary = stats_summary(stats)
        summary["group"] = group
        return summary


class ViewRegistry:
    """Standing-query registry plus the write-path delta plumbing.

    Owned by :class:`~repro.aodb.database.AodbDatabase` (``db.views``).
    Source actors reach it duck-typed through ``runtime.database`` — the
    ingest path never imports this module — and call :meth:`emit_from`
    with each freshly accepted batch; readers come in through
    ``db.view(...)``.  Delta flushes are logged to the ``views`` ring of
    the flight recorder attached to the runtime's scheduler, if any.
    """

    def __init__(self, database: "AodbDatabase") -> None:
        self.database = database
        self._definitions: dict[str, ViewDef] = {}
        self._by_source: dict[str, list[ViewDef]] = {}
        self._coalescers: dict[str, "DeltaCoalescer"] = {}
        # Resilience for the flush ask; None falls through to the
        # runtime config's default_call_deadline / default_retry_policy.
        self.call_deadline: float | None = None
        self.call_retry = None
        self._metrics_registered = False
        self._fold_seconds = None
        self.duplicate_flushes = 0
        self.failed_flushes = 0

    # -- registration ----------------------------------------------------------

    def register(self, definition: ViewDef) -> ViewDef:
        """Register one standing query (source type must exist first)."""
        definition.validate()
        self.database.runtime.actor_type(definition.source)  # fail fast
        if definition.name in self._definitions:
            raise QueryError(f"view {definition.name!r} already registered")
        self.database.register_actor(MaterializedView)  # idempotent
        self._definitions[definition.name] = definition
        self._by_source.setdefault(definition.source, []).append(definition)
        self._register_metrics()
        return definition

    def definition(self, name: str) -> ViewDef:
        definition = self._definitions.get(name)
        if definition is None:
            raise QueryError(f"no registered view named {name!r}")
        return definition

    def names(self) -> list[str]:
        return sorted(self._definitions)

    def registered(self, name: str) -> bool:
        return name in self._definitions

    def has_views_for(self, type_name: str) -> bool:
        """Write-path fast check: does this source type feed any view?"""
        return type_name in self._by_source

    # -- delta emission (the ingestion write path calls this) ------------------

    def emit_from(
        self, actor: Actor, batches: dict[str, list[tuple[float, float]]]
    ) -> "list[Future[int]]":
        """Emit deltas for one accepted ingest; returns ack tickets.

        The caller gathers the tickets alongside its storage futures, so
        its insert ack covers view maintenance — that await is what turns
        at-least-once delivery into exactly-once folding.
        """
        definitions = self._by_source.get(actor.key.type_name)
        if not definitions:
            return []
        coalescer = self._coalescer(actor.context.silo_id)
        entity = actor.actor_id
        # One pass over the points folds the overall stats and every window
        # definition's buckets, inline: sequential += for the totals (sum()
        # compensates on Python 3.12+ and would break view == pull parity)
        # and </> for the extrema (min()/max() treat NaN differently), i.e.
        # exactly fold_stats(stats, 1, value, value, value) per point.
        windows = [
            (definition.window_seconds, {})
            for definition in definitions
            if definition.kind == "window"
        ]
        floor = math.floor
        count = 0
        total = 0.0
        vmin = math.inf
        vmax = -math.inf
        for points in batches.values():
            for ts, value in points:
                count += 1
                total += value
                if value < vmin:
                    vmin = value
                if value > vmax:
                    vmax = value
                for width, folds in windows:
                    bucket = floor(ts / width) * width
                    stats = folds.get(bucket)
                    if stats is None:
                        stats = folds[bucket] = [0, 0.0, math.inf, -math.inf]
                    stats[0] += 1
                    stats[1] += value
                    if value < stats[2]:
                        stats[2] = value
                    if value > stats[3]:
                        stats[3] = value
        tickets: "list[Future[int]]" = []
        window_folds = iter(folds for _width, folds in windows)
        for definition in definitions:
            if definition.group_by is None:
                group = GLOBAL_GROUP
            else:
                group = str(actor.state.get(definition.group_by))
            shard = shard_id(definition.name, group)
            if definition.kind == "window":
                folds = next(window_folds)
                for bucket in sorted(folds):
                    stats = folds[bucket]
                    tickets.append(
                        coalescer.emit(
                            shard, group, entity, bucket,
                            stats[0], stats[1], stats[2], stats[3],
                        )
                    )
            elif count:
                tickets.append(
                    coalescer.emit(shard, group, entity, 0.0, count, total, vmin, vmax)
                )
        return tickets

    def _coalescer(self, silo_id: str) -> "DeltaCoalescer":
        coalescer = self._coalescers.get(silo_id)
        if coalescer is None:
            from ..net.deltas import DeltaCoalescer

            runtime = self.database.runtime
            coalescer = DeltaCoalescer(
                runtime.scheduler,
                self._make_send(silo_id),
                source=silo_id,
            )
            self._coalescers[silo_id] = coalescer
        return coalescer

    def _make_send(self, silo_id: str):
        def send(shard: str, stream: str, seq: int, entries: list) -> "Future[Any]":
            runtime = self.database.runtime
            tracer = runtime.tracer
            started = runtime.scheduler.now
            span = None
            if tracer.enabled:
                span = tracer.begin(
                    f"view-fold {shard}#{seq}", "view-fold", stream, started
                )
            recorder = runtime.scheduler.recorder
            if recorder is not None:
                recorder.views.record("view-flush", shard, f"#{seq} x{len(entries)}")
            ref = runtime.ref(VIEW_ACTOR_TYPE, shard, caller_endpoint=silo_id)
            reply = ref.ask(
                "apply_deltas",
                stream,
                seq,
                list(entries),
                deadline=self.call_deadline,
                retry=self.call_retry,
            )

            def folded(reply: "Future[Any]") -> None:
                # Registered first, so it runs before the coalescer settles
                # the flush's tickets.
                now = runtime.scheduler.now
                try:
                    result = reply.result()
                except Exception as exc:
                    self.failed_flushes += 1
                    if recorder is not None:
                        recorder.views.record("view-flush-failed", shard, repr(exc))
                    if span is not None:
                        tracer.finish(span, now, "error", repr(exc))
                    return
                if span is not None:
                    tracer.finish(span, now)
                if self._fold_seconds is not None:
                    self._fold_seconds.observe(now - started)
                if result.get("duplicate"):
                    self.duplicate_flushes += 1
                    if recorder is not None:
                        recorder.views.record("view-flush-duplicate", shard, f"#{seq}")

            reply.add_done_callback(folded)
            return reply

        return send

    # -- observability ---------------------------------------------------------

    def staleness_seconds(self) -> float:
        """Age of the oldest unacked delta (0.0 when fully folded).

        This is the freshness bound a reader observes: every delta older
        than this is already folded into its view shard.
        """
        now = self.database.runtime.scheduler.now
        worst = 0.0
        for coalescer in self._coalescers.values():
            oldest = coalescer.oldest_pending()
            if oldest is not None and now - oldest > worst:
                worst = now - oldest
        return worst

    def pending_deltas(self) -> int:
        return sum(c.pending_deltas() for c in self._coalescers.values())

    def deltas_emitted(self) -> int:
        return sum(c.deltas_emitted for c in self._coalescers.values())

    def flushes(self) -> int:
        return sum(c.flushes for c in self._coalescers.values())

    def _register_metrics(self) -> None:
        if self._metrics_registered:
            return
        registry = self.database.runtime.metrics
        if registry is None:  # pragma: no cover - runtimes always have one
            return
        self._metrics_registered = True
        registry.register_probe("views.registered", lambda: len(self._definitions))
        registry.register_probe("views.staleness_seconds", self.staleness_seconds)
        registry.register_probe("views.pending_deltas", self.pending_deltas)
        registry.register_probe("views.deltas_emitted", self.deltas_emitted)
        registry.register_probe("views.flushes", self.flushes)
        registry.register_probe(
            "views.duplicate_flushes", lambda: self.duplicate_flushes
        )
        registry.register_probe(
            "views.failed_flushes", lambda: self.failed_flushes
        )
        self._fold_seconds = registry.histogram("views.fold_seconds")
