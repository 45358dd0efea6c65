"""Key-value store interface and a plain in-memory implementation.

The actor runtime persists grain state through this interface (the paper's
DynamoDB role).  All operations are asynchronous so that implementations can
charge latency and capacity; the in-memory store here is the zero-latency
baseline used by unit tests.

Versioning: every item carries a monotonically increasing integer *etag*.
Conditional writes (``expected_etag``) give optimistic concurrency, which the
runtime uses to detect split-brain double activations of the same grain.

Isolation: the in-memory store copies a value with
:func:`~repro.storage.serde.snapshot` when the write *lands* (not when it is
issued: a write-behind flush hands over the live document, and the landed
copy must include anything journaled during the round trip), and copies
again on every read.  A value wrapped in :class:`~repro.storage.serde.Frozen`
(the redo journal's payload) is stored by identity instead; the wrappers
(:mod:`~repro.storage.dynamo`, :mod:`~repro.storage.chaos`, group commit)
pass it through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ConditionalCheckFailedError, FencedWriteError, KeyNotFoundError
from .serde import snapshot


@dataclass(frozen=True)
class Item:
    """A stored document plus its version tag."""

    value: Any
    etag: int


class KeyValueStore:
    """Abstract asynchronous key-value store.

    Keys are strings; values are arbitrary serializable documents.  Concrete
    stores may raise :class:`~repro.errors.ThrottlingError` on overload.
    """

    async def get(self, key: str) -> Item:
        """Return the item for ``key`` or raise KeyNotFoundError."""
        raise NotImplementedError

    async def try_get(self, key: str) -> Item | None:
        """Return the item for ``key``, or None if absent."""
        try:
            return await self.get(key)
        except KeyNotFoundError:
            return None

    async def put(
        self,
        key: str,
        value: Any,
        expected_etag: int | None = None,
        fence: int | None = None,
    ) -> int:
        """Store ``value`` under ``key``; return the new etag.

        With ``expected_etag`` the write succeeds only if the current etag
        matches (0 means "must not exist"), else raises
        :class:`~repro.errors.ConditionalCheckFailedError`.  With ``fence``
        the store first admits the token (see :meth:`_admit_fence`) and
        rejects a stale one with :class:`~repro.errors.FencedWriteError`
        before the etag check.
        """
        raise NotImplementedError

    async def put_many(
        self, entries: list[tuple[str, Any, int | None, int | None]]
    ) -> list[int | BaseException]:
        """Store several ``(key, value, expected_etag, fence)`` entries.

        Returns one result per entry *positionally*: the new etag on
        success, or the exception that write raised (conditional-check and
        fence rejections are isolated per entry, never poisoning the
        batch).  The base implementation loops over :meth:`put` — one round
        trip per entry; capacity-modeled stores override it to charge a
        single round trip for the whole batch (DynamoDB ``BatchWriteItem``),
        which is the storage half of the ingestion fast path's group commit.
        """
        results: list[int | BaseException] = []
        for key, value, expected_etag, fence in entries:
            try:
                results.append(await self.put(key, value, expected_etag, fence))
            except Exception as exc:  # noqa: BLE001 - isolated per entry
                results.append(exc)
        return results

    async def delete(self, key: str) -> bool:
        """Delete ``key``; return True if it existed."""
        raise NotImplementedError

    async def scan(self, prefix: str = "") -> list[tuple[str, Item]]:
        """Return all (key, item) pairs whose key starts with ``prefix``."""
        raise NotImplementedError

    # -- fence tokens --------------------------------------------------------
    #
    # Fence tokens (monotonic per grain, issued by the membership store)
    # piggyback on conditional writes: the store remembers the highest fence
    # admitted per key and rejects anything older with FencedWriteError.

    fenced_writes = 0  # stale writes rejected; shadowed per instance on first use

    def _admit_fence(self, key: str, fence: int | None) -> None:
        """Record ``fence`` as the floor for ``key``; reject older tokens."""
        if fence is None:
            return
        floors = self.__dict__.setdefault("_fence_floors", {})
        floor = floors.get(key)
        if floor is not None and fence < floor:
            self.fenced_writes = self.fenced_writes + 1
            raise FencedWriteError(
                f"key {key!r}: fence {fence} is older than admitted fence {floor}"
            )
        floors[key] = fence

    async def advance_fence(self, key: str, fence: int | None) -> None:
        """Raise the fence floor for ``key`` without writing.

        Called by a successor activation at load time, so that a zombie
        predecessor's in-flight flush is rejected even if it lands before
        the successor's first write.
        """
        self._admit_fence(key, fence)


class InMemoryKVStore(KeyValueStore):
    """Dictionary-backed store with etags; zero latency, never throttles."""

    def __init__(self) -> None:
        self._items: dict[str, Item] = {}
        self.reads = 0
        self.writes = 0
        self.deletes = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    async def get(self, key: str) -> Item:
        self.reads += 1
        item = self._items.get(key)
        if item is None:
            raise KeyNotFoundError(key)
        return Item(snapshot(item.value), item.etag)

    async def put(
        self,
        key: str,
        value: Any,
        expected_etag: int | None = None,
        fence: int | None = None,
    ) -> int:
        self._admit_fence(key, fence)
        self.writes += 1
        current = self._items.get(key)
        current_etag = current.etag if current is not None else 0
        if expected_etag is not None and expected_etag != current_etag:
            raise ConditionalCheckFailedError(
                f"key {key!r}: expected etag {expected_etag}, found {current_etag}"
            )
        new_etag = current_etag + 1
        self._items[key] = Item(snapshot(value), new_etag)
        return new_etag

    async def delete(self, key: str) -> bool:
        self.deletes += 1
        return self._items.pop(key, None) is not None

    async def scan(self, prefix: str = "") -> list[tuple[str, Item]]:
        self.reads += 1
        return [
            (key, Item(snapshot(item.value), item.etag))
            for key, item in sorted(self._items.items())
            if key.startswith(prefix)
        ]

    def keys(self) -> Iterable[str]:
        """All stored keys (test/introspection helper, not part of the API)."""
        return self._items.keys()
