"""The actor-oriented database facade.

:class:`AodbDatabase` composes the actor runtime with the database features
the AODB vision adds on top: secondary indexes, a declarative query layer,
multi-actor transactions, and saga workflows.  Applications construct one
database over one runtime and talk to both::

    db = AodbDatabase(runtime)
    db.register_actor(Cow)                 # forwards to the runtime,
                                           # declares Cow's indexes
    cows = await db.query("Cow").where(owner_id="f1").call("describe").run()
    async with db.transaction() as txn:
        ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import QueryError
from ..runtime.actor import Actor
from ..runtime.key import ActorKey
from ..runtime.runtime import AodbRuntime
from .index import IndexRegistry
from .query import Query
from .transactions import LockManager, Transaction
from .views import (
    MaterializedViewHandle,
    PullViewHandle,
    ViewDef,
    ViewRegistry,
)
from .workflow import Workflow

if TYPE_CHECKING:  # pragma: no cover
    pass

DEFAULT_LOCK_TIMEOUT = 5.0


class AodbDatabase:
    """Database features layered over an :class:`AodbRuntime`."""

    def __init__(self, runtime: AodbRuntime) -> None:
        self.runtime = runtime
        self.indexes = IndexRegistry()
        self.views = ViewRegistry(self)
        self.locks = LockManager(self)
        self.stats_commits = 0
        self.stats_aborts = 0
        # Let the runtime notify us of activations (extent maintenance)
        # and let actors reach the index registry via their context.
        runtime.database = self

    # -- registration ---------------------------------------------------------

    def register_actor(
        self, actor_class: type[Actor], name: str | None = None
    ) -> type[Actor]:
        """Register with the runtime and declare the class's indexes."""
        registered = self.runtime.register_actor(actor_class, name=name)
        self.indexes.declare_for(actor_class)
        return registered

    def register_actors(self, actor_classes) -> None:
        """Register several actor classes at once."""
        for actor_class in actor_classes:
            self.register_actor(actor_class)

    # -- runtime hooks -----------------------------------------------------------

    def note_activation(self, key: ActorKey) -> None:
        """Called by the runtime when an actor is (re)activated."""
        self.indexes.note_instance(key.type_name, key.actor_id)

    # -- feature entry points ---------------------------------------------------

    def query(self, type_name: str) -> Query:
        """Start a declarative query over actors of one type."""
        self.runtime.actor_type(type_name)  # fail fast on unknown types
        return Query(self, type_name)

    def register_view(self, definition: ViewDef) -> ViewDef:
        """Register a standing query, maintained incrementally from the
        ingest write path (see :mod:`repro.aodb.views`)."""
        return self.views.register(definition)

    def view(
        self,
        name: str,
        source: str | None = None,
        group_by: str | None = None,
    ) -> MaterializedViewHandle | PullViewHandle:
        """A read handle over a standing query.

        A registered ``name`` returns the materialized handle — one ask
        per group asked.  An unregistered shape falls back to the
        pull-based query layer when ``source`` names the actor type to
        scan: every read fans out ``view_sample`` over the extent and
        folds client-side with the same algebra, so the two paths agree
        on results and differ only (enormously) in cost.
        """
        if self.views.registered(name):
            return MaterializedViewHandle(self, self.views.definition(name))
        if source is None:
            raise QueryError(
                f"no registered view named {name!r}; pass source= (and "
                "optionally group_by=) to fall back to a pull-based scan"
            )
        self.runtime.actor_type(source)  # fail fast on unknown types
        return PullViewHandle(self, source, group_by)

    def transaction(self, lock_timeout: float = DEFAULT_LOCK_TIMEOUT) -> Transaction:
        """Begin a multi-actor transaction (strict 2PL, timeout aborts)."""
        return Transaction(self, lock_timeout)

    def workflow(self, name: str = "workflow") -> Workflow:
        """Build a compensable multi-actor workflow (saga)."""
        return Workflow(name)

    # -- convenience -----------------------------------------------------------------

    def ref(self, type_name: str, actor_id: str):
        """Shorthand for ``runtime.ref`` (client endpoint)."""
        return self.runtime.ref(type_name, actor_id)

    # -- time-series reads ------------------------------------------------------------

    async def timeseries_range(
        self, type_name: str, actor_id: str, start: float, end: float
    ) -> list[tuple[float, float]]:
        """Raw ``(timestamp, value)`` pairs over [start, end) from one
        channel actor's tiered window, stitched across hot head and sealed
        compressed blocks (blocks outside the range are skipped by their
        summaries without decompression)."""
        return await self.ref(type_name, actor_id).query_range(start, end)

    async def timeseries_aggregate(
        self, type_name: str, actor_id: str, start: float, end: float
    ) -> dict:
        """Count/min/max/sum/mean over [start, end) from one channel
        actor's tiered window; sealed blocks fully inside the range are
        answered from per-block summaries alone."""
        return await self.ref(type_name, actor_id).aggregate_range(start, end)
