"""Aggregator actors: statistical summaries per time bucket.

The model (§4.2) conceptualizes aggregations as active entities "since
there can be parallelism in computing these aggregations across levels of
detail (e.g., hourly aggregates serving as input to daily aggregates)".
One Aggregator actor summarizes one channel at one level; when a bucket
closes it forwards the bucket's summary one-way to the next level.
"""

from __future__ import annotations

from ..runtime.actor import Actor, actor_method
from ..runtime.persistence import WritePolicy
from .model import DataPoint
from .timeseries import AggregateStats, BucketedAggregates

LEVEL_SECONDS = {
    "minute": 60.0,
    "hour": 3600.0,
    "day": 86400.0,
    "month": 2592000.0,
}


def _stats_to_dict(stats: AggregateStats) -> dict:
    return {
        "count": stats.count,
        "min": stats.minimum,
        "max": stats.maximum,
        "mean": stats.mean,
        "m2": stats.m2,
    }


def _stats_from_dict(payload: dict) -> AggregateStats:
    return AggregateStats(
        count=payload["count"],
        minimum=payload["min"],
        maximum=payload["max"],
        mean=payload["mean"],
        m2=payload["m2"],
    )


class Aggregator(Actor):
    """Per-channel, per-level statistical aggregation."""

    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE
    placement = "prefer_local"

    def __init__(self, context):
        super().__init__(context)
        self.buckets = BucketedAggregates(LEVEL_SECONDS["hour"])
        # Contributions not yet forwarded downstream.  Welford summaries
        # cannot be *subtracted*, so "what did I already send?" is tracked
        # by accumulating un-forwarded deltas separately; forwarding pops
        # from here, which makes flush-then-close send each reading exactly
        # once instead of re-sending the whole bucket.
        self._pending = BucketedAggregates(LEVEL_SECONDS["hour"])
        self._last_open_bucket: int | None = None

    async def on_activate(self):
        level = self.state.get("level", "hour")
        bucket_seconds = self.state.get("bucket_seconds", LEVEL_SECONDS[level])
        max_buckets = self.state.get("max_buckets")
        self.buckets = BucketedAggregates(bucket_seconds, max_buckets=max_buckets)
        for bucket_str, payload in self.state.get("buckets", {}).items():
            self.buckets.merge_bucket(int(bucket_str), _stats_from_dict(payload))
        self._pending = BucketedAggregates(bucket_seconds)
        for bucket_str, payload in self.state.get("pending_buckets", {}).items():
            self._pending.merge_bucket(int(bucket_str), _stats_from_dict(payload))
        self._last_open_bucket = self.state.get("last_open_bucket")

    async def on_deactivate(self):
        self.state["buckets"] = {
            str(bucket): _stats_to_dict(self.buckets.stats_for(bucket))
            for bucket in self.buckets.buckets()
        }
        self.state["pending_buckets"] = {
            str(bucket): _stats_to_dict(self._pending.stats_for(bucket))
            for bucket in self._pending.buckets()
        }
        self.state["last_open_bucket"] = self._last_open_bucket
        self.mark_dirty()

    async def configure(
        self,
        channel_id: str,
        level: str = "hour",
        downstream_id: str | None = None,
        bucket_seconds: float | None = None,
        max_buckets: int | None = None,
    ) -> dict:
        """Provision: which channel, what bucket size, where rollups go.

        ``max_buckets`` bounds retention — the oldest bucket is evicted
        when a new one would exceed the cap (None keeps everything).
        """
        if level not in LEVEL_SECONDS and bucket_seconds is None:
            raise ValueError(f"unknown level {level!r} and no bucket_seconds")
        self.state["channel_id"] = channel_id
        self.state["level"] = level
        self.state["bucket_seconds"] = bucket_seconds or LEVEL_SECONDS[level]
        self.state["downstream_id"] = downstream_id
        self.state["max_buckets"] = max_buckets
        self.mark_dirty()
        self.buckets = BucketedAggregates(
            self.state["bucket_seconds"], max_buckets=max_buckets
        )
        self._pending = BucketedAggregates(self.state["bucket_seconds"])
        self._last_open_bucket = None
        return {"aggregator_id": self.actor_id, "level": level}

    @property
    def _downstream_id(self) -> str | None:
        return self.state.get("downstream_id")

    async def ingest(self, points: list[tuple[float, float]]) -> int:
        """Fold a batch of raw readings into the current buckets.

        When the open bucket advances, the closed bucket's un-forwarded
        contributions are sent to the downstream aggregator (hour → day),
        giving the multi-level parallelism the paper's model calls for.
        """
        track = self._downstream_id is not None
        for timestamp, value in points:
            point = DataPoint(timestamp, value)
            bucket = self.buckets.observe(point)
            if track:
                self._pending.observe(point)
            if self._last_open_bucket is None:
                self._last_open_bucket = bucket
            elif bucket > self._last_open_bucket:
                self._forward_closed(self._last_open_bucket)
                self._last_open_bucket = bucket
        return len(points)

    def _forward_closed(self, bucket: int) -> None:
        """Send a bucket's not-yet-forwarded delta downstream (once)."""
        downstream_id = self._downstream_id
        if not downstream_id:
            return
        stats = self._pending.pop_bucket(bucket)
        if stats is None or stats.count == 0:
            # Everything in this bucket was already forwarded (an earlier
            # flush), or the bucket only ever existed downstream-free.
            return
        bucket_start = bucket * self.state["bucket_seconds"]
        self.context.actor("Aggregator", downstream_id).tell(
            "merge_summary", bucket_start, _stats_to_dict(stats)
        )

    async def merge_summary(self, bucket_start: float, payload: dict) -> None:
        """Receive a closed lower-level bucket and fold it into ours."""
        bucket = self.buckets.bucket_of(bucket_start)
        stats = _stats_from_dict(payload)
        self.buckets.merge_bucket(bucket, stats)
        if self._downstream_id is not None:
            # Multi-level chains: what arrives from below is itself a delta
            # this level has not forwarded yet.
            self._pending.merge_bucket(bucket, stats)

    async def flush(self) -> bool:
        """Forward every pending (un-forwarded) contribution downstream.

        Safe to call repeatedly and mid-bucket: only deltas accumulated
        since the previous forward are sent, so a flush followed by the
        bucket closing (or another flush) never double-counts.
        """
        forwarded = False
        for bucket in self._pending.buckets():
            if self._pending.stats_for(bucket).count > 0:
                self._forward_closed(bucket)
                forwarded = True
        return forwarded

    # -- queries ------------------------------------------------------------------

    @actor_method(read_only=True)
    async def series(self, start: float, end: float) -> list[tuple[int, dict]]:
        """Bucket summaries overlapping [start, end) — the plot query."""
        return self.buckets.series(start, end)

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        """Aggregator metadata and bucket count."""
        return {
            "aggregator_id": self.actor_id,
            "channel_id": self.state.get("channel_id"),
            "level": self.state.get("level"),
            "bucket_seconds": self.state.get("bucket_seconds"),
            "downstream_id": self.state.get("downstream_id"),
            "buckets": len(self.buckets.buckets()),
        }
