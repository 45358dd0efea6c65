"""The analytical tier: a star schema loaded from the archive log.

The paper's architecture (§5) has three components: the actor runtime, the
cloud storage system, and "an analytical database system ... data recorded
in the storage system can be exported into a classic star schema".  The
paper declares the analytical queries out of scope; we build the component
anyway so the architecture is complete end to end:

- dimension tables: organization, sensor, channel, time (hour grain);
- one fact table of sensor readings;
- a loader from :class:`~repro.storage.archive.ArchiveLog` streams;
- a small aggregation surface (group-by over dimension attributes).

Everything is in-memory and columnar-ish (parallel lists), which is plenty
for the historical queries the case studies need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..storage.archive import ArchiveLog


@dataclass(frozen=True)
class ChannelDimension:
    """One row of the channel dimension."""

    channel_id: str
    sensor_id: str
    org_id: str
    sensor_type: str = "unknown"
    is_virtual: bool = False


@dataclass
class FactRow:
    """One sensor reading in the fact table (ids are dimension keys)."""

    channel_key: int
    time_key: int
    timestamp: float
    value: float


def time_key_of(timestamp: float, grain_seconds: float = 3600.0) -> int:
    """Map a timestamp to its time-dimension key (hour grain by default)."""
    return int(timestamp // grain_seconds)


def parse_channel_id(channel_id: str) -> ChannelDimension:
    """Derive dimension attributes from the platform's id scheme.

    Channel ids look like ``org-0/s-3/c-1`` or ``org-0/s-3/vc``.
    """
    parts = channel_id.split("/")
    if len(parts) < 3:
        return ChannelDimension(channel_id, channel_id, "unknown")
    org_id = parts[0]
    sensor_id = "/".join(parts[:-1])
    leaf = parts[-1]
    return ChannelDimension(
        channel_id=channel_id,
        sensor_id=sensor_id,
        org_id=org_id,
        is_virtual=leaf.startswith("vc"),
    )


@dataclass
class AggregateRow:
    """One group of an aggregation query."""

    group: tuple
    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class StarSchema:
    """An in-memory star schema over sensor readings."""

    def __init__(self, time_grain_seconds: float = 3600.0) -> None:
        self.time_grain_seconds = time_grain_seconds
        self._channel_rows: list[ChannelDimension] = []
        self._channel_keys: dict[str, int] = {}
        self._facts: list[FactRow] = []

    # -- dimensions ----------------------------------------------------------

    def channel_key(self, channel_id: str) -> int:
        """Get-or-create the dimension key for a channel."""
        key = self._channel_keys.get(channel_id)
        if key is None:
            key = len(self._channel_rows)
            self._channel_rows.append(parse_channel_id(channel_id))
            self._channel_keys[channel_id] = key
        return key

    def channel(self, key: int) -> ChannelDimension:
        """The channel dimension row for a key."""
        return self._channel_rows[key]

    @property
    def channel_count(self) -> int:
        return len(self._channel_rows)

    @property
    def fact_count(self) -> int:
        return len(self._facts)

    # -- loading --------------------------------------------------------------

    def load_fact(self, channel_id: str, timestamp: float, value: float) -> None:
        """Insert one reading."""
        self._facts.append(
            FactRow(
                channel_key=self.channel_key(channel_id),
                time_key=time_key_of(timestamp, self.time_grain_seconds),
                timestamp=timestamp,
                value=float(value),
            )
        )

    def load_archive(
        self, archive: ArchiveLog, streams: Iterable[str] | None = None
    ) -> int:
        """Bulk-load archived channel streams; returns rows loaded.

        This is the export path of the paper's architecture: windows
        evicted from actor memory landed in the archive; the warehouse
        loader turns them into facts.
        """
        names = list(streams) if streams is not None else archive.streams()
        loaded = 0
        for stream in names:
            for record in archive.export(stream):
                self.load_fact(stream, record.timestamp, float(record.payload))
                loaded += 1
        return loaded

    # -- queries ----------------------------------------------------------------

    def aggregate(
        self,
        group_by: tuple[str, ...] = ("org_id",),
        where: Callable[[ChannelDimension, FactRow], bool] | None = None,
    ) -> list[AggregateRow]:
        """Group facts by dimension attributes and aggregate values.

        ``group_by`` names attributes of the channel dimension plus the
        pseudo-attribute ``time_key``.  Results are sorted by group.
        """
        valid = {"channel_id", "sensor_id", "org_id", "sensor_type", "is_virtual"}
        for attribute in group_by:
            if attribute != "time_key" and attribute not in valid:
                raise ValueError(f"unknown group-by attribute {attribute!r}")
        groups: dict[tuple, AggregateRow] = {}
        for fact in self._facts:
            dimension = self._channel_rows[fact.channel_key]
            if where is not None and not where(dimension, fact):
                continue
            key = tuple(
                fact.time_key
                if attribute == "time_key"
                else getattr(dimension, attribute)
                for attribute in group_by
            )
            row = groups.get(key)
            if row is None:
                groups[key] = AggregateRow(key, 1, fact.value, fact.value, fact.value)
            else:
                row.count += 1
                row.total += fact.value
                row.minimum = min(row.minimum, fact.value)
                row.maximum = max(row.maximum, fact.value)
        return [groups[key] for key in sorted(groups)]

    def time_series(self, channel_id: str) -> list[tuple[int, float]]:
        """Per-time-bucket means for one channel (a plotting query)."""
        key = self._channel_keys.get(channel_id)
        if key is None:
            return []
        rows = self.aggregate(
            group_by=("channel_id", "time_key"),
            where=lambda dim, _fact: dim.channel_id == channel_id,
        )
        return [(row.group[1], row.mean) for row in rows]
