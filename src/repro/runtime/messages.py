"""Message envelopes exchanged between actors.

Every remote interaction is an :class:`Invocation`: target key, method name,
positional/keyword arguments, plus bookkeeping the runtime needs (caller
endpoint for the reply path, enqueue timestamps for latency accounting, and
the reply future for ask-style calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..kernel.futures import Future
from .key import ActorKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.trace import Span


@dataclass(slots=True)
class Invocation:
    """One actor method call in flight."""

    target: ActorKey
    method: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    caller_endpoint: str = "client"
    reply: Future[Any] | None = None
    # Qualified keys of the actors in the call chain that produced this
    # invocation (used for cycle/deadlock detection on non-reentrant actors).
    chain: tuple[str, ...] = ()
    # Absolute virtual time after which the caller no longer wants the
    # result; the runtime fails the reply and activations skip execution.
    deadline: float | None = None

    # Filled in by the runtime for metrics:
    sent_at: float = 0.0
    enqueued_at: float = 0.0

    # How many messages shared this invocation's delivery envelope (1 when
    # batching is off).  The activation amortizes the per-message dispatch
    # overhead of the CPU cost model across the cohort.
    batch_cohort: int = 1

    # The causal-tracing span covering this invocation (None when tracing
    # is disabled).  Runtime-internal: never serialized with the payload.
    span: "Span | None" = None

    def describe(self) -> str:
        """Short human-readable form for errors and traces."""
        return f"{self.target}.{self.method}()"


@dataclass(slots=True)
class DeliveryReceipt:
    """What a one-way send returns: proof of enqueue, not of processing."""

    target: ActorKey
    method: str
    enqueued_at: float
