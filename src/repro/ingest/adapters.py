"""Device payload adapters: heterogeneous formats → normalized batches.

Non-functional requirement 3 (§2): "The IoT data platform must be modular
in its support for data ingested from IoT devices and allow for
communication employing different data formats."  Adapters translate a raw
device payload into the platform's normalized ingest form — a mapping of
channel id to ``(timestamp, value)`` pairs — so the actor tier never sees
device dialects.

Three realistic dialects are provided (JSON-document, CSV line batch, and
a packed binary frame), plus a registry that dispatches by declared format.
"""

from __future__ import annotations

import struct
from typing import Protocol

from ..errors import PlatformError

NormalizedBatch = dict[str, list[tuple[float, float]]]


class AdapterError(PlatformError):
    """The payload does not match its declared format."""


class PayloadAdapter(Protocol):
    """Translate one device payload into a normalized batch."""

    def parse(self, payload: object) -> NormalizedBatch:
        ...  # pragma: no cover - protocol


class JsonDocumentAdapter:
    """Document dialect: ``{"channels": {cid: [{"t": ..., "v": ...}]}}``.

    The shape a modern HTTP/MQTT device gateway would POST.
    """

    def parse(self, payload: object) -> NormalizedBatch:
        if not isinstance(payload, dict) or "channels" not in payload:
            raise AdapterError("json document must have a 'channels' mapping")
        channels = payload["channels"]
        if not isinstance(channels, dict):
            raise AdapterError("'channels' must be a mapping")
        batch: NormalizedBatch = {}
        for channel_id, readings in channels.items():
            points = []
            for reading in readings:
                try:
                    points.append((float(reading["t"]), float(reading["v"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise AdapterError(
                        f"bad reading in channel {channel_id!r}: {reading!r}"
                    ) from exc
            batch[str(channel_id)] = points
        return batch


class CsvLineAdapter:
    """Line dialect: ``channel_id,timestamp,value`` per line.

    The shape of a legacy data logger upload (the paper's SHM loggers
    convert analog signals into digital outputs batched as text).
    """

    def parse(self, payload: object) -> NormalizedBatch:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        if not isinstance(payload, str):
            raise AdapterError("csv payload must be text")
        batch: NormalizedBatch = {}
        for line_number, line in enumerate(payload.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise AdapterError(
                    f"line {line_number}: expected 'channel,ts,value', got {line!r}"
                )
            channel_id, ts_text, value_text = (part.strip() for part in parts)
            try:
                point = (float(ts_text), float(value_text))
            except ValueError as exc:
                raise AdapterError(f"line {line_number}: non-numeric field") from exc
            batch.setdefault(channel_id, []).append(point)
        return batch


class BinaryFrameAdapter:
    """Packed dialect: a frame of ``(channel_index, timestamp, value)``.

    Header: ``!HH`` (version, reading count); then per reading
    ``!Hdd``.  Channel indexes are mapped through the frame's channel
    table, supplied at adapter construction (devices are provisioned with
    their channel ids).  The shape of a bandwidth-constrained radio uplink.
    """

    VERSION = 1
    _HEADER = struct.Struct("!HH")
    _READING = struct.Struct("!Hdd")

    def __init__(self, channel_table: list[str]) -> None:
        if not channel_table:
            raise ValueError("binary adapter needs a channel table")
        self.channel_table = list(channel_table)

    def parse(self, payload: object) -> NormalizedBatch:
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise AdapterError("binary payload must be bytes")
        data = bytes(payload)
        if len(data) < self._HEADER.size:
            raise AdapterError("frame shorter than header")
        version, count = self._HEADER.unpack_from(data, 0)
        if version != self.VERSION:
            raise AdapterError(f"unsupported frame version {version}")
        expected = self._HEADER.size + count * self._READING.size
        if len(data) != expected:
            raise AdapterError(
                f"frame length {len(data)} != expected {expected} for {count} readings"
            )
        batch: NormalizedBatch = {}
        offset = self._HEADER.size
        for _ in range(count):
            index, timestamp, value = self._READING.unpack_from(data, offset)
            offset += self._READING.size
            if index >= len(self.channel_table):
                raise AdapterError(f"channel index {index} outside channel table")
            batch.setdefault(self.channel_table[index], []).append((timestamp, value))
        return batch

    @classmethod
    def encode(
        cls, channel_table: list[str], batch: NormalizedBatch
    ) -> bytes:
        """Inverse of :meth:`parse` (used by device simulators and tests)."""
        index_of = {cid: i for i, cid in enumerate(channel_table)}
        readings = [
            (index_of[channel_id], timestamp, value)
            for channel_id, points in batch.items()
            for timestamp, value in points
        ]
        frame = bytearray(cls._HEADER.pack(cls.VERSION, len(readings)))
        for reading in readings:
            frame.extend(cls._READING.pack(*reading))
        return bytes(frame)


class AdapterRegistry:
    """Dispatch payloads to adapters by declared format name."""

    def __init__(self) -> None:
        self._adapters: dict[str, PayloadAdapter] = {}

    def register(self, format_name: str, adapter: PayloadAdapter) -> None:
        """Add or replace the adapter for a format."""
        self._adapters[format_name] = adapter

    def formats(self) -> list[str]:
        """Registered format names."""
        return sorted(self._adapters)

    def parse(self, format_name: str, payload: object) -> NormalizedBatch:
        """Normalize a payload declared to be in ``format_name``."""
        adapter = self._adapters.get(format_name)
        if adapter is None:
            raise AdapterError(f"no adapter registered for format {format_name!r}")
        return adapter.parse(payload)


def default_registry(binary_channel_table: list[str] | None = None) -> AdapterRegistry:
    """A registry with the three standard dialects installed."""
    registry = AdapterRegistry()
    registry.register("json", JsonDocumentAdapter())
    registry.register("csv", CsvLineAdapter())
    if binary_channel_table:
        registry.register("binary", BinaryFrameAdapter(binary_channel_table))
    return registry
