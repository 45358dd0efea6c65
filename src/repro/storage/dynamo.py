"""DynamoDB-like provisioned-capacity key-value store.

The paper provisions "DynamoDB with 200 writes and 200 reads per second" for
Orleans grain storage and discusses how naive write-through durability would
consume exactly that budget.  This store reproduces those operational
characteristics:

- read and write **capacity units** (RCU/WCU) with token-bucket accounting
  (1 unit per 4 KiB read, 1 unit per 1 KiB written, matching DynamoDB's
  pricing model closely enough for the durability ablation);
- a per-request latency model;
- two overload behaviours: ``throttle`` (raise
  :class:`~repro.errors.ThrottledError` carrying the suggested
  ``retry_after``, as the AWS SDK surfaces throttling with retry hints) or
  ``delay`` (wait for capacity, modeling a client with retries/backoff).
"""

from __future__ import annotations

from typing import Any

from ..errors import ThrottledError
from ..kernel.resources import TokenBucket
from ..kernel.rng import RngRegistry
from ..kernel.scheduler import Scheduler
from ..net.latency import ConstantLatency, LatencyModel
from .kv import InMemoryKVStore, Item, KeyValueStore
from .serde import estimate_size

READ_UNIT_BYTES = 4096
WRITE_UNIT_BYTES = 1024


class ProvisionedKVStore(KeyValueStore):
    """A latency- and capacity-modeled wrapper over an in-memory store."""

    def __init__(
        self,
        scheduler: Scheduler,
        read_capacity_units: float = 200.0,
        write_capacity_units: float = 200.0,
        latency: LatencyModel | None = None,
        on_overload: str = "throttle",
        rng: RngRegistry | None = None,
    ) -> None:
        if on_overload not in ("throttle", "delay"):
            raise ValueError("on_overload must be 'throttle' or 'delay'")
        self._scheduler = scheduler
        self._inner = InMemoryKVStore()
        self._latency = latency or ConstantLatency(0.005)
        self._rng = (rng or RngRegistry(0)).stream("dynamo")
        self._read_bucket = TokenBucket(scheduler, read_capacity_units)
        self._write_bucket = TokenBucket(scheduler, write_capacity_units)
        self.on_overload = on_overload
        self.throttled_reads = 0
        self.throttled_writes = 0
        # Capacity-unit consumption and stall totals, for the metrics layer
        # (the paper's operational cost conversation is in these numbers).
        self.rcu_consumed = 0.0
        self.wcu_consumed = 0.0
        self.throttle_stall_seconds = 0.0
        # Group-commit accounting: batched puts pay full capacity units but
        # share one latency round trip (DynamoDB BatchWriteItem).
        self.write_batches = 0
        self.batched_round_trips_saved = 0

    # -- helpers ---------------------------------------------------------------

    async def _charge(self, bucket: TokenBucket, units: float, kind: str) -> None:
        if self.on_overload == "delay":
            started = self._scheduler.now
            await bucket.consume(units)
            stalled = self._scheduler.now - started
            if stalled > 0:
                self.throttle_stall_seconds += stalled
                if kind == "read":
                    self.throttled_reads += 1
                else:
                    self.throttled_writes += 1
            self._record_units(kind, units)
            return
        wait = bucket.try_consume(units)
        if wait > 0:
            if kind == "read":
                self.throttled_reads += 1
            else:
                self.throttled_writes += 1
            raise ThrottledError(
                f"provisioned {kind} capacity exceeded "
                f"(need {units:.2f} units, retry in {wait:.3f}s)",
                retry_after=wait,
            )
        self._record_units(kind, units)

    def _record_units(self, kind: str, units: float) -> None:
        if kind == "read":
            self.rcu_consumed += units
        else:
            self.wcu_consumed += units

    async def _network_round_trip(self) -> None:
        delay = self._latency.sample(self._rng)
        if delay > 0:
            await self._scheduler.sleep(delay)

    @staticmethod
    def _read_units(value: Any) -> float:
        size = estimate_size(value)
        return max(1.0, -(-size // READ_UNIT_BYTES))  # ceil division

    @staticmethod
    def _write_units(value: Any) -> float:
        size = estimate_size(value)
        return max(1.0, -(-size // WRITE_UNIT_BYTES))

    # -- KeyValueStore API ------------------------------------------------------

    async def get(self, key: str) -> Item:
        item = await self._inner.get(key)
        await self._charge(self._read_bucket, self._read_units(item.value), "read")
        await self._network_round_trip()
        return item

    async def put(
        self,
        key: str,
        value: Any,
        expected_etag: int | None = None,
        fence: int | None = None,
    ) -> int:
        await self._charge(self._write_bucket, self._write_units(value), "write")
        await self._network_round_trip()
        return await self._inner.put(key, value, expected_etag, fence)

    async def put_many(
        self, entries: list[tuple[str, Any, int | None, int | None]]
    ) -> list[int | BaseException]:
        """Batched puts: full WCU for every item, ONE network round trip.

        Capacity is honest — a 10-item batch consumes 10 items' worth of
        write units — but the per-request latency (and in the real system,
        the per-request overhead) is paid once.  A capacity shortfall
        rejects the whole batch, like a throttled ``BatchWriteItem``;
        conditional-check and fence rejections are isolated per entry in
        the backing store.
        """
        if not entries:
            return []
        units = sum(self._write_units(value) for _key, value, _etag, _f in entries)
        await self._charge(self._write_bucket, units, "write")
        await self._network_round_trip()
        self.write_batches += 1
        if len(entries) > 1:
            self.batched_round_trips_saved += len(entries) - 1
        return await self._inner.put_many(entries)

    async def advance_fence(self, key: str, fence: int | None) -> None:
        # Fence metadata is a control-plane CAS against the item's attribute,
        # not a document write: no capacity units, no round trip charged.
        await self._inner.advance_fence(key, fence)

    async def delete(self, key: str) -> bool:
        await self._charge(self._write_bucket, 1.0, "write")
        await self._network_round_trip()
        return await self._inner.delete(key)

    async def scan(self, prefix: str = "") -> list[tuple[str, Item]]:
        rows = await self._inner.scan(prefix)
        units = sum(self._read_units(item.value) for _key, item in rows) or 1.0
        await self._charge(self._read_bucket, units, "read")
        await self._network_round_trip()
        return rows

    # -- introspection -----------------------------------------------------------

    def register_metrics(self, registry: "object", **labels: str) -> None:
        """Export capacity counters as pull-probes on ``registry``.

        Loosely typed to keep the storage layer free of an
        :mod:`repro.obs` import; ``labels`` distinguishes multiple stores
        (e.g. ``store="grain"``).
        """
        registry.register_probe(
            "storage.rcu_consumed", lambda: self.rcu_consumed, **labels
        )
        registry.register_probe(
            "storage.wcu_consumed", lambda: self.wcu_consumed, **labels
        )
        registry.register_probe(
            "storage.throttled_reads", lambda: self.throttled_reads, **labels
        )
        registry.register_probe(
            "storage.throttled_writes", lambda: self.throttled_writes, **labels
        )
        registry.register_probe(
            "storage.throttle_stall_seconds",
            lambda: self.throttle_stall_seconds,
            **labels,
        )
        registry.register_probe("storage.reads", lambda: self.reads, **labels)
        registry.register_probe("storage.writes", lambda: self.writes, **labels)
        registry.register_probe(
            "storage.write_batches", lambda: self.write_batches, **labels
        )
        registry.register_probe(
            "storage.batched_round_trips_saved",
            lambda: self.batched_round_trips_saved,
            **labels,
        )
        registry.register_probe(
            "storage.fenced_writes", lambda: self.fenced_writes, **labels
        )

    @property
    def reads(self) -> int:
        """Successful reads against the backing store."""
        return self._inner.reads

    @property
    def writes(self) -> int:
        """Successful writes against the backing store."""
        return self._inner.writes

    @property
    def fenced_writes(self) -> int:
        """Stale writes rejected by the backing store's fence floors."""
        return self._inner.fenced_writes

    def __len__(self) -> int:
        return len(self._inner)
