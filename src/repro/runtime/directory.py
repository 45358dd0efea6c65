"""The grain directory: which silo hosts which virtual actor.

Orleans maintains a distributed directory mapping grain identity to its
current activation.  We model it as a single consistent registry (the
simulation is single-process, so the distributed-consensus aspect is out of
scope — documented in DESIGN.md), with the same interface the runtime would
use: lookup, register, unregister, and per-silo enumeration for shutdown.
A lookup here charges no virtual time, so there is nothing for an Orleans
style per-silo directory cache to save: every call looks its key up here.
"""

from __future__ import annotations

from .key import ActorKey


class GrainDirectory:
    """Consistent registry of activation placements."""

    def __init__(self) -> None:
        self._entries: dict[ActorKey, str] = {}

    def lookup(self, key: ActorKey) -> str | None:
        """Return the hosting silo id, or None when not activated."""
        return self._entries.get(key)

    def register(self, key: ActorKey, silo_id: str) -> None:
        """Record that ``key`` is activated on ``silo_id``."""
        existing = self._entries.get(key)
        if existing is not None and existing != silo_id:
            raise ValueError(
                f"{key} already registered on {existing}, cannot move to {silo_id}"
            )
        self._entries[key] = silo_id

    def unregister(self, key: ActorKey) -> bool:
        """Remove the entry for ``key``; returns True if present."""
        return self._entries.pop(key, None) is not None

    def entries_on(self, silo_id: str) -> list[ActorKey]:
        """All keys currently placed on one silo."""
        return [key for key, host in self._entries.items() if host == silo_id]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ActorKey) -> bool:
        return key in self._entries
