"""Actor base class and method decorator.

User actors subclass :class:`Actor`, declare behaviour as ``async`` methods
and (optionally) tune them with :func:`actor_method`.  Class-level attributes
declare the actor's runtime contract:

``reentrant``
    Whether multiple messages may interleave inside one activation
    (Orleans grains default to non-reentrant turn-based execution).
``durable``
    Whether the actor has persistent state (``self.state``) loaded from and
    flushed to grain storage.
``write_policy`` / ``write_interval_seconds``
    When that state is flushed (see :mod:`repro.runtime.persistence`).
``placement``
    Name of the placement strategy for new activations
    (``random`` / ``prefer_local`` / ``hash`` / ``pinned``).
``indexed_attributes``
    State attributes maintained in the AODB secondary indexes
    (see :mod:`repro.aodb.index`).
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ActorMethodError
from .key import ActorKey
from .persistence import WritePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .activation import Activation

_METHOD_MARKER = "_actor_method_options"


def actor_method(
    cost: float | None = None,
    read_only: bool = False,
) -> Callable[[Callable], Callable]:
    """Annotate an actor method with runtime options.

    ``cost`` is the simulated CPU charge (core-seconds) for one execution;
    when omitted the runtime default applies.  ``read_only`` marks methods
    that do not mutate state — write-through persistence skips flushing
    after them.
    """

    def decorate(func: Callable) -> Callable:
        if not inspect.iscoroutinefunction(func):
            raise TypeError(
                f"actor method {func.__name__!r} must be 'async def'"
            )
        setattr(func, _METHOD_MARKER, {"cost": cost, "read_only": read_only})
        return func

    return decorate


#: Shared default options for undecorated methods — callers only read it.
DEFAULT_METHOD_OPTIONS: dict[str, Any] = {"cost": None, "read_only": False}


def method_options(func: Callable) -> dict[str, Any]:
    """Return the options attached by :func:`actor_method` (or defaults)."""
    return getattr(func, _METHOD_MARKER, DEFAULT_METHOD_OPTIONS)


class Actor:
    """Base class for all virtual actors.

    Instances are *activations*: created on demand by the runtime, fed one
    message at a time, and collected when idle.  Application state lives in
    instance attributes; durable actors additionally get ``self.state``, a
    dict persisted through the grain storage provider.  ``self.context``
    is the :class:`~repro.runtime.activation.Activation` hosting the actor.
    """

    reentrant: bool = False
    # Non-reentrant actors reject messages whose call chain re-enters them
    # (a guaranteed deadlock); set this to execute such cycles interleaved
    # instead (Orleans' call-chain reentrancy).
    allow_chain_reentrancy: bool = False
    durable: bool = False
    write_policy: WritePolicy = WritePolicy.ON_DEACTIVATE
    write_interval_seconds: float = 60.0
    placement: str | None = None
    indexed_attributes: tuple[str, ...] = ()
    default_method_cost: float | None = None
    # Messages one activation may queue (0 = unbounded).  A bounded mailbox
    # surfaces overload as MailboxOverflowError instead of hiding it.
    mailbox_capacity: int = 0

    def __init__(self, context: "Activation") -> None:
        self.context = context
        self.state: dict[str, Any] = {}

    # -- identity helpers ------------------------------------------------------

    @property
    def key(self) -> ActorKey:
        """This actor's identity."""
        return self.context.key

    @property
    def actor_id(self) -> str:
        """Shorthand for the id part of the key."""
        return self.context.key.actor_id

    # -- lifecycle hooks --------------------------------------------------------

    async def on_activate(self) -> None:
        """Called after construction (and state load, if durable)."""

    async def on_deactivate(self) -> None:
        """Called before the activation is collected or the silo stops."""

    async def receive_reminder(self, name: str) -> None:
        """Called when a durable reminder fires (override to use)."""

    def snapshot_state(self) -> None:
        """Serialize volatile in-memory structures into ``self.state``.

        Durable actors that keep working state outside the state dict (ring
        buffers, accumulators) override this *synchronous* hook with its
        serialization, and call :meth:`mark_dirty` whenever that state
        changes.  Every flush of dirty state (write-through, the interval
        timer, :meth:`write_state`, deactivation), the redo-journal pump and
        the quarantine scram flush call it first, so the document they write
        is consistent mid-life, without the full deactivation path.
        """

    # -- persistence ----------------------------------------------------------

    def mark_dirty(self) -> None:
        """Note that ``self.state`` changed (flushed per the write policy)."""
        self.context.dirty = True

    async def write_state(self) -> None:
        """Force the state document to grain storage now."""
        if not self.durable:
            raise ActorMethodError(
                f"{type(self).__name__} is not durable; set durable=True"
            )
        self.context.dirty = True
        await self.context._flush_if_dirty()

    async def clear_state(self) -> None:
        """Delete the persisted state document."""
        if self.durable:
            context = self.context
            await context.runtime.grain_storage.delete(self.key.storage_key())
            self.state = {}
            context.etag = 0
            context.dirty = False

    # -- indexing (AODB feature) -----------------------------------------------

    def set_indexed(self, attr: str, value: Any) -> None:
        """Set ``self.state[attr]`` and eagerly maintain its secondary index.

        Requires ``attr`` to be listed in ``indexed_attributes`` and an
        :class:`~repro.aodb.database.AodbDatabase` layered on the runtime.
        """
        if attr not in self.indexed_attributes:
            raise ActorMethodError(
                f"{type(self).__name__}.{attr} is not declared in "
                "indexed_attributes"
            )
        # Local import: repro.aodb imports the runtime package at load time.
        from ..aodb.index import MISSING

        old_value = self.state.get(attr, MISSING)
        self.state[attr] = value
        self.mark_dirty()
        database = self.context.runtime.database
        if database is not None:
            database.indexes.update(self.key, attr, old_value, value)

    # -- introspection ------------------------------------------------------------

    @classmethod
    def exposed_methods(cls) -> dict[str, Callable]:
        """Public async methods callable through references."""
        exposed: dict[str, Callable] = {}
        for name in dir(cls):
            if name.startswith("_"):
                continue
            if name in _NON_EXPOSED:
                continue
            attr = getattr(cls, name)
            if inspect.iscoroutinefunction(attr):
                exposed[name] = attr
        return exposed


_NON_EXPOSED = frozenset(
    {
        "on_activate",
        "on_deactivate",
        "write_state",
        "clear_state",
    }
)
