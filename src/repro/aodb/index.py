"""Secondary indexes over actor state.

The AODB vision (Bernstein et al., cited throughout the paper) enriches the
actor runtime with database features; indexing is the first of them.  An
index here maps ``(actor type, attribute) → value → set of actor ids`` and
is maintained *eagerly*: actors update it synchronously as part of the state
mutation (`Actor.set_indexed`), so a lookup immediately after a write
observes the write.

The registry also maintains per-type **extents** — the set of actor ids
known to exist — which gives the query layer something to scan when no
index applies.  Virtual actors conceptually always exist, so the extent
records every actor that has been activated or explicitly registered.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import IndexError_
from ..runtime.key import ActorKey


class _Missing:
    """Sentinel for "no value": distinct from None, which is indexable."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "MISSING"


MISSING = _Missing()


class IndexRegistry:
    """Eagerly-maintained hash indexes plus per-type extents."""

    def __init__(self) -> None:
        # (type_name, attr) -> value -> set of actor ids
        self._indexes: dict[tuple[str, str], dict[object, set[str]]] = {}
        self._extents: dict[str, set[str]] = defaultdict(set)
        self.updates = 0
        self.lookups = 0

    # -- declaration ------------------------------------------------------------

    def declare(self, type_name: str, attr: str) -> None:
        """Create an (empty) index on ``type_name.attr``; idempotent."""
        self._indexes.setdefault((type_name, attr), {})

    def declare_for(self, actor_class: type) -> None:
        """Declare indexes for every attribute the class lists as indexed."""
        for attr in getattr(actor_class, "indexed_attributes", ()):
            self.declare(actor_class.__name__, attr)

    def has_index(self, type_name: str, attr: str) -> bool:
        """Whether an index exists on ``type_name.attr``."""
        return (type_name, attr) in self._indexes

    # -- maintenance -----------------------------------------------------------

    def update(
        self, key: ActorKey, attr: str, old_value: object, new_value: object
    ) -> None:
        """Move ``key`` from the old value's bucket to the new value's.

        ``old_value=MISSING`` inserts; ``new_value=MISSING`` removes.
        ``None`` is an ordinary, indexable value — an attribute explicitly
        set to None round-trips through lookups like any other (an earlier
        revision used None as the sentinel, which silently dropped such
        attributes from the index).  For backward compatibility None is
        still accepted in the *old_value* position as "no previous value":
        discarding from the None bucket is a no-op unless the actor really
        was indexed under None.  Unhashable values are rejected — index
        keys must be value-like.
        """
        index = self._indexes.get((key.type_name, attr))
        if index is None:
            raise IndexError_(
                f"no index declared on {key.type_name}.{attr}; "
                "declare it before updating"
            )
        self.updates += 1
        if old_value is not MISSING:
            bucket = index.get(old_value)
            if bucket is not None:
                bucket.discard(key.actor_id)
                if not bucket:
                    del index[old_value]
        if new_value is not MISSING:
            try:
                index.setdefault(new_value, set()).add(key.actor_id)
            except TypeError as exc:
                raise IndexError_(
                    f"unhashable index value for {key.type_name}.{attr}: "
                    f"{new_value!r}"
                ) from exc

    # -- extent ---------------------------------------------------------------

    def note_instance(self, type_name: str, actor_id: str) -> None:
        """Record that ``type_name/actor_id`` exists."""
        self._extents[type_name].add(actor_id)

    def extent(self, type_name: str) -> list[str]:
        """All known actor ids of a type, sorted for determinism."""
        return sorted(self._extents.get(type_name, ()))

    def extent_size(self, type_name: str) -> int:
        """Number of known instances of a type."""
        return len(self._extents.get(type_name, ()))

    # -- lookups -----------------------------------------------------------------

    def lookup(self, type_name: str, attr: str, value: object) -> list[str]:
        """Actor ids whose indexed ``attr`` equals ``value`` (sorted)."""
        index = self._indexes.get((type_name, attr))
        if index is None:
            raise IndexError_(f"no index declared on {type_name}.{attr}")
        self.lookups += 1
        return sorted(index.get(value, ()))

    def lookup_many(
        self, type_name: str, criteria: dict[str, object]
    ) -> list[str]:
        """Actor ids matching *all* indexed equality criteria (sorted)."""
        if not criteria:
            raise IndexError_("lookup_many requires at least one criterion")
        result: set[str] | None = None
        for attr, value in criteria.items():
            matches = set(self.lookup(type_name, attr, value))
            result = matches if result is None else result & matches
            if not result:
                return []
        return sorted(result or ())
