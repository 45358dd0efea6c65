"""Physical and virtual sensor channel actors.

Channels are the paper's unit of ingestion: each holds "a window of data
points originating in the respective data stream" (§4.2).  Physical
channels receive raw readings; virtual channels derive a stream from
several physical channels through an equation (the benchmark uses a
summation of a sensor's two physical channels).

Both use prefer-local placement (§5: "we have had to change the activation
placement strategy away from random placement for our sensor channels and
aggregators") so they are activated on the silo of the sensor that first
talks to them.
"""

from __future__ import annotations

from ..runtime.actor import Actor, actor_method
from ..runtime.persistence import WritePolicy
from ..storage.tsblocks import SealedBlock, TieredSeries
from .equations import equation_from_description
from .model import AlertRule, SensorType
from .timeseries import AccumulatedChange

DEFAULT_WINDOW_CAPACITY = 4096
# Points per sealed compressed block; 0 disables tiering (raw window).
DEFAULT_BLOCK_SIZE = 256
# Cap on how many pending (incomplete) virtual-channel timestamps to keep.
MAX_PENDING_TIMESTAMPS = 1024


class _ChannelBase(Actor):
    """Shared storage/query machinery of physical and virtual channels.

    The live window is a :class:`~repro.storage.tsblocks.TieredSeries`:
    the newest points stay raw (the mutable hot head), older runs are
    sealed into immutable compressed blocks with per-block summaries.  It
    is serialized into ``self.state`` by :meth:`snapshot_state` before every
    flush of dirty state; the default write policy flushes only on
    deactivation, which reproduces the paper's benchmark durability
    configuration ("upload ... only ... when the Orleans silo service is
    shut down").  Sealed blocks serialize as-is (bytes + scalars), so a
    migrated channel re-opens its blocks on the new silo without
    recompression.
    """

    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE
    placement = "prefer_local"

    def __init__(self, context):
        super().__init__(context)
        # ``self.window`` is built by on_activate, in the event that
        # attaches the state it is restored from.
        self.window: TieredSeries
        self.change = AccumulatedChange()
        # High-water mark of stored timestamps, used by the optional
        # duplicate filter; restored from the persisted window on activate.
        self._last_ts = float("-inf")

    def _new_window(self, capacity: int, block_size: int) -> TieredSeries:
        return TieredSeries(
            capacity,
            block_size,
            stats=getattr(self.context.runtime, "tsblock_stats", None),
        )

    async def on_activate(self):
        window_capacity = self.state.get("window_capacity", DEFAULT_WINDOW_CAPACITY)
        block_size = self.state.get("block_size", DEFAULT_BLOCK_SIZE)
        tsdoc = self.state.get("tsdoc")
        if tsdoc is not None:
            self.window = TieredSeries.from_document(
                tsdoc,
                stats=getattr(self.context.runtime, "tsblock_stats", None),
            )
        else:
            self.window = self._new_window(window_capacity, block_size)
        latest = self.window.latest()
        if latest is not None:
            self._last_ts = latest[0]
        change = self.state.get("change")
        if change:
            self.change.first_value = change["first"]
            self.change.last_value = change["last"]
            self.change.total = change["total"]
            self.change.count = change["count"]

    def snapshot_state(self) -> None:
        """Serialize the live window into the state document.

        Shared by every flush, deactivation, the redo-journal pump and the
        quarantine scram flush (see
        :meth:`repro.runtime.actor.Actor.snapshot_state`).  The window hands
        over its cached document for the current version (built once per
        write, see :meth:`~repro.storage.tsblocks.TieredSeries.to_document`):
        blocks go in with the bytes the window holds and the hot head as one
        packed column, so a snapshot of an unchanged window costs O(1).
        """
        self.state["tsdoc"] = self.window.to_document()
        self.state["change"] = self.change.snapshot()
        self.mark_dirty()

    async def on_deactivate(self):
        self.snapshot_state()
        # Stop feeding the cluster-wide storage probes: the re-opened
        # activation (possibly on another silo) re-registers these points.
        self.window.detach_stats()

    def _store_points(self, points: list[tuple[float, float]]) -> int:
        """Append readings to the window; archive evicted ones.

        Each eviction run goes to the archive in one call: a tiered window
        evicts whole sealed blocks, which the archive keeps compressed as
        they are; a raw window (``block_size=0``, or blocks larger than its
        capacity) evicts runs of pairs, which the archive seals itself.
        """
        if not points:
            return 0
        evicted = self.window.append_many(points)
        # The window lives outside ``self.state``: the flush path snapshots
        # it into the document whenever the state is dirty.
        self.mark_dirty()
        self.change.observe_pairs(points)
        # append_many validated the batch is time-ordered, so the last
        # timestamp is the batch maximum.
        last = points[-1][0]
        if last > self._last_ts:
            self._last_ts = last
        if evicted:
            archive = getattr(self.context.runtime, "archive", None)
            if archive is not None:
                for run in evicted:
                    if type(run) is SealedBlock:
                        archive.append_block(self.actor_id, run)
                    else:
                        archive.extend(self.actor_id, run)
        return len(points)

    # -- queries --------------------------------------------------------------

    @actor_method(read_only=True)
    async def latest(self) -> tuple[float, float] | None:
        """The most recent reading as ``(timestamp, value)``."""
        return self.window.latest()

    @actor_method(read_only=True)
    async def query_range(self, start: float, end: float) -> list[tuple[float, float]]:
        """Raw readings with start <= timestamp < end (the Fig. 8 request)."""
        return self.window.range(start, end)

    @actor_method(read_only=True)
    async def recent(self, count: int) -> list[tuple[float, float]]:
        """The most recent ``count`` readings."""
        return self.window.tail(count)

    @actor_method(read_only=True)
    async def aggregate_range(self, start: float, end: float) -> dict:
        """Count/min/max/sum/mean over [start, end).

        Sealed blocks fully inside the range answer from their summaries
        without decompression.
        """
        return self.window.aggregate(start, end)

    @actor_method(read_only=True)
    async def accumulated_change(self) -> dict:
        """Net and total movement of the stream (functional requirement 4)."""
        return self.change.snapshot()

    @actor_method(read_only=True)
    async def depth(self) -> int:
        """Number of points currently buffered."""
        return len(self.window)

    @actor_method(read_only=True)
    async def storage_stats(self) -> dict:
        """Live-memory accounting of this channel's tiered window."""
        return self.window.memory_stats()


class PhysicalSensorChannel(_ChannelBase):
    """A channel bound to one physical signal of one sensor."""

    async def configure(
        self,
        org_id: str,
        sensor_id: str,
        sensor_type: str = SensorType.EXTENSION.value,
        window_capacity: int = DEFAULT_WINDOW_CAPACITY,
        alert_rules: list[dict] | None = None,
        subscribers: list[str] | None = None,
        aggregator_id: str | None = None,
        dedup: bool = False,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> dict:
        """Provision the channel.

        ``subscribers`` are virtual-channel actor ids that receive a copy of
        every ingested batch; ``aggregator_id`` optionally routes points to
        an hourly aggregator.  With ``dedup`` the channel drops readings at
        or below its stored high-water timestamp, making ingestion
        idempotent under at-least-once delivery (duplicated messages).
        """
        self.state["org_id"] = org_id
        self.state["sensor_id"] = sensor_id
        self.state["sensor_type"] = sensor_type
        self.state["window_capacity"] = window_capacity
        self.state["alert_rules"] = list(alert_rules or ())
        self.state["subscribers"] = list(subscribers or ())
        self.state["aggregator_id"] = aggregator_id
        self.state["dedup"] = dedup
        self.state["block_size"] = block_size
        self.state["last_alert_at"] = {}
        self.mark_dirty()
        self.window.detach_stats()
        self.window = self._new_window(window_capacity, block_size)
        return {"channel_id": self.actor_id}

    async def add_alert_rule(self, rule: dict) -> None:
        """Attach a threshold rule pushed down by the organization."""
        rules = self.state.setdefault("alert_rules", [])
        rules[:] = [r for r in rules if r["rule_id"] != rule["rule_id"]]
        rules.append(dict(rule))
        self.mark_dirty()

    async def ingest(self, points: list[tuple[float, float]]) -> int:
        """Store one batch of readings; the ingestion hot path.

        Checks alert rules, then forwards the batch one-way to subscribed
        virtual channels and the aggregator (if any) — one-way because the
        derived streams are eventually consistent with the raw stream.
        """
        if self.state.get("dedup"):
            points = [p for p in points if p[0] > self._last_ts]
            if not points:
                return 0
        stored = self._store_points(points)
        if self.state.get("alert_rules"):
            self._check_alerts(points)
        for subscriber in self.state.get("subscribers", ()):
            self.context.actor("VirtualSensorChannel", subscriber).tell(
                "ingest_input", self.actor_id, points
            )
        aggregator_id = self.state.get("aggregator_id")
        if aggregator_id:
            self.context.actor("Aggregator", aggregator_id).tell("ingest", points)
        return stored

    def _check_alerts(self, points: list[tuple[float, float]]) -> None:
        sensor_type = SensorType(self.state.get("sensor_type", "extension"))
        last_alert_at = self.state.setdefault("last_alert_at", {})
        org = self.context.actor("Organization", self.state["org_id"])
        for rule_dict in self.state.get("alert_rules", ()):
            rule = AlertRule(
                rule_dict["rule_id"],
                low=rule_dict.get("low"),
                high=rule_dict.get("high"),
                channel_id=rule_dict.get("channel_id"),
                sensor_type=SensorType(rule_dict["sensor_type"])
                if rule_dict.get("sensor_type")
                else None,
                cooldown_seconds=rule_dict.get("cooldown_seconds", 60.0),
                message=rule_dict.get("message", ""),
            )
            if not rule.matches(self.actor_id, sensor_type):
                continue
            for timestamp, value in points:
                if not rule.violated_by(value):
                    continue
                last = last_alert_at.get(rule.rule_id)
                if last is not None and timestamp - last < rule.cooldown_seconds:
                    continue
                last_alert_at[rule.rule_id] = timestamp
                self.mark_dirty()
                org.tell(
                    "record_alert",
                    {
                        "rule_id": rule.rule_id,
                        "channel_id": self.actor_id,
                        "value": value,
                        "timestamp": timestamp,
                        "message": rule.message,
                    },
                )
                break  # at most one alert per rule per batch


class VirtualSensorChannel(_ChannelBase):
    """A derived stream computed from several physical channels (§4.2)."""

    async def configure(
        self,
        org_id: str,
        sensor_id: str,
        input_channel_ids: list[str],
        equation: dict | None = None,
        window_capacity: int = DEFAULT_WINDOW_CAPACITY,
        aggregator_id: str | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> dict:
        """Provision: inputs, the equation, and an optional aggregator."""
        if not input_channel_ids:
            raise ValueError("a virtual channel needs at least one input")
        self.state["org_id"] = org_id
        self.state["sensor_id"] = sensor_id
        self.state["input_channel_ids"] = list(input_channel_ids)
        self.state["equation"] = equation or {"kind": "sum"}
        equation_from_description(self.state["equation"])  # validate now
        self.state["window_capacity"] = window_capacity
        self.state["aggregator_id"] = aggregator_id
        self.state["block_size"] = block_size
        self.mark_dirty()
        self.window.detach_stats()
        self.window = self._new_window(window_capacity, block_size)
        self._pending: dict[float, dict[str, float]] = {}
        return {"channel_id": self.actor_id}

    async def on_activate(self):
        await super().on_activate()
        self._pending = {}

    async def ingest_input(
        self, channel_id: str, points: list[tuple[float, float]]
    ) -> int:
        """Receive a batch from one input channel; derive when aligned.

        A derived point is produced for each timestamp once *all* input
        channels contributed a reading for it.
        """
        inputs = self.state.get("input_channel_ids", ())
        if channel_id not in inputs:
            return 0
        equation = equation_from_description(
            self.state.get("equation", {"kind": "sum"})
        )
        derived: list[tuple[float, float]] = []
        for timestamp, value in points:
            slot = self._pending.setdefault(timestamp, {})
            slot[channel_id] = value
            if len(slot) == len(inputs):
                derived.append((timestamp, equation.evaluate(slot)))
                del self._pending[timestamp]
        if len(self._pending) > MAX_PENDING_TIMESTAMPS:
            # Drop the oldest incomplete timestamps (an input went silent).
            for stale in sorted(self._pending)[: len(self._pending) // 2]:
                del self._pending[stale]
        if derived:
            derived.sort()
            self._store_points(derived)
            aggregator_id = self.state.get("aggregator_id")
            if aggregator_id:
                self.context.actor("Aggregator", aggregator_id).tell(
                    "ingest", derived
                )
        return len(derived)

    @actor_method(read_only=True)
    async def pending_count(self) -> int:
        """Timestamps still waiting for some input (diagnostic)."""
        return len(self._pending)
