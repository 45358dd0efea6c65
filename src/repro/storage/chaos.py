"""Storage fault injection for the chaos harness.

:class:`ChaosKVStore` decorates any :class:`~repro.storage.kv.KeyValueStore`
with scripted and probabilistic faults:

- **throttle windows** — between two virtual times, reads and/or writes fail
  with :class:`~repro.errors.ThrottledError` carrying a ``retry_after``
  hint, reproducing a DynamoDB capacity burst without draining real token
  buckets;
- **random faults** — a seeded per-operation probability of failing with
  :class:`~repro.errors.InjectedFaultError`, modeling flaky connectivity to
  the storage service.

The wrapper is transparent when no faults are scripted, so deployments can
keep it permanently in the stack and only arm it for chaos runs.
"""

from __future__ import annotations

import math
import random
from typing import Any

from ..errors import InjectedFaultError, ThrottledError
from ..kernel.scheduler import Scheduler
from .kv import Item, KeyValueStore

__all__ = ["ChaosKVStore"]


class ChaosKVStore(KeyValueStore):
    """A fault-injecting decorator over another key-value store."""

    def __init__(
        self,
        scheduler: Scheduler,
        inner: KeyValueStore,
        rng: random.Random | None = None,
        read_fault_rate: float = 0.0,
        write_fault_rate: float = 0.0,
        retry_after: float = 0.05,
    ) -> None:
        for name, rate in (
            ("read_fault_rate", read_fault_rate),
            ("write_fault_rate", write_fault_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self._scheduler = scheduler
        self._inner = inner
        self._rng = rng or random.Random(0)
        self.read_fault_rate = read_fault_rate
        self.write_fault_rate = write_fault_rate
        self.retry_after = retry_after
        self._throttle_windows: list[tuple[float, float, frozenset[str]]] = []
        self.injected_read_faults = 0
        self.injected_write_faults = 0
        self.injected_throttles = 0

    # -- scripting ----------------------------------------------------------

    def throttle_between(
        self,
        start: float,
        end: float = math.inf,
        kinds: tuple[str, ...] = ("read", "write"),
    ) -> None:
        """Fail every ``kinds`` operation with ThrottledError in [start, end)."""
        for kind in kinds:
            if kind not in ("read", "write"):
                raise ValueError("kinds must be 'read' and/or 'write'")
        self._throttle_windows.append((start, end, frozenset(kinds)))

    def clear_faults(self) -> None:
        """Drop all scripted windows and probabilistic rates."""
        self._throttle_windows.clear()
        self.read_fault_rate = 0.0
        self.write_fault_rate = 0.0

    # -- fault checks -------------------------------------------------------

    def _check(self, kind: str) -> None:
        now = self._scheduler.now
        for start, end, kinds in self._throttle_windows:
            if kind in kinds and start <= now < end:
                self.injected_throttles += 1
                remaining = min(end - now, self.retry_after)
                raise ThrottledError(
                    f"injected {kind} throttle window [{start:g}, {end:g})",
                    retry_after=remaining,
                )
        rate = self.read_fault_rate if kind == "read" else self.write_fault_rate
        if rate > 0 and self._rng.random() < rate:
            if kind == "read":
                self.injected_read_faults += 1
            else:
                self.injected_write_faults += 1
            raise InjectedFaultError(f"injected {kind} fault")

    # -- KeyValueStore API --------------------------------------------------

    async def get(self, key: str) -> Item:
        self._check("read")
        return await self._inner.get(key)

    async def put(
        self,
        key: str,
        value: Any,
        expected_etag: int | None = None,
        fence: int | None = None,
    ) -> int:
        self._check("write")
        return await self._inner.put(key, value, expected_etag, fence)

    async def put_many(
        self, entries: list[tuple[str, Any, int | None, int | None]]
    ) -> list[int | BaseException]:
        """Batched writes roll the fault dice once, like the round trip they
        share: a throttle window or injected fault fails the *whole* batch
        (every group-commit ticket), matching a lost ``BatchWriteItem``."""
        self._check("write")
        return await self._inner.put_many(entries)

    async def advance_fence(self, key: str, fence: int | None) -> None:
        # Fence-floor advancement is control-plane metadata; chaos windows
        # target data-plane round trips, so it passes through unfaulted.
        await self._inner.advance_fence(key, fence)

    @property
    def fenced_writes(self) -> int:
        return self._inner.fenced_writes

    async def delete(self, key: str) -> bool:
        self._check("write")
        return await self._inner.delete(key)

    async def scan(self, prefix: str = "") -> list[tuple[str, Item]]:
        self._check("read")
        return await self._inner.scan(prefix)

    def __len__(self) -> int:
        return len(self._inner)
