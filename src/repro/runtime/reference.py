"""Actor references — the client-visible face of a virtual actor.

A reference never dangles: it names an actor that the runtime will activate
on first use.  Attribute access produces remote-method stubs, so calls read
naturally::

    cow = runtime.ref("Cow", "dk-0042")
    location = await cow.current_location()
    cow.tell("record_reading", reading)     # one-way, fire-and-forget

References participate in the fault-tolerance layer: ``ask`` accepts a
``deadline`` (virtual seconds) and a ``retry`` policy, and
:meth:`ActorRef.with_options` bakes defaults into the reference so method
stubs (``await cow.current_location()``) are transparently resilient.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..kernel.futures import Future
from .key import ActorKey
from .messages import DeliveryReceipt
from .resilience import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.trace import Span
    from .runtime import AodbRuntime


class RemoteMethod:
    """A bound stub for one method of one actor reference."""

    __slots__ = ("_ref", "_name")

    def __init__(self, ref: "ActorRef", name: str) -> None:
        self._ref = ref
        self._name = name

    def __call__(self, *args: Any, **kwargs: Any) -> Future[Any]:
        return self._ref.ask(self._name, *args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RemoteMethod {self._ref.key}.{self._name}>"


class ActorRef:
    """A location-transparent handle to a virtual actor."""

    __slots__ = (
        "_runtime",
        "key",
        "caller_endpoint",
        "chain",
        "_deadline",
        "_retry",
        "_trace",
    )

    def __init__(
        self,
        runtime: "AodbRuntime",
        key: ActorKey,
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        deadline: float | None = None,
        retry: RetryPolicy | None = None,
        trace: "Span | None" = None,
    ) -> None:
        self._runtime = runtime
        self.key = key
        self.caller_endpoint = caller_endpoint
        self.chain = chain
        self._deadline = deadline
        self._retry = retry
        # Parent span for causal tracing: calls through this reference
        # become children of ``trace`` (None outside a traced turn).
        self._trace = trace

    def with_options(
        self,
        deadline: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> "ActorRef":
        """A copy of this reference with resilience defaults baked in.

        Every ask through the returned reference (including method stubs)
        applies ``deadline`` / ``retry`` unless the call overrides them.
        """
        return ActorRef(
            self._runtime,
            self.key,
            self.caller_endpoint,
            self.chain,
            deadline=deadline if deadline is not None else self._deadline,
            retry=retry if retry is not None else self._retry,
            trace=self._trace,
        )

    def ask(
        self,
        method: str,
        *args: Any,
        deadline: float | None = None,
        retry: RetryPolicy | None = None,
        **kwargs: Any,
    ) -> Future[Any]:
        """Invoke ``method`` and return a future for its result.

        ``deadline`` (virtual seconds) and ``retry`` are keyword-only and
        reserved: resolution order is call argument, then
        :meth:`with_options` defaults, then the runtime config defaults
        (``default_call_deadline`` / ``default_retry_policy``).  Actor
        methods therefore cannot take parameters with these two names
        through the remote-call path.
        """
        config = self._runtime.config
        if deadline is None:
            deadline = (
                self._deadline
                if self._deadline is not None
                else config.default_call_deadline
            )
        if retry is None:
            retry = (
                self._retry if self._retry is not None else config.default_retry_policy
            )
        if deadline is None and retry is None:
            return self._runtime.send(
                self.key,
                method,
                args,
                kwargs,
                caller_endpoint=self.caller_endpoint,
                chain=self.chain,
                parent_span=self._trace,
            )
        return self._runtime.send_resilient(
            self.key,
            method,
            args,
            kwargs,
            caller_endpoint=self.caller_endpoint,
            chain=self.chain,
            retry=retry,
            deadline=deadline,
            parent_span=self._trace,
        )

    def tell(self, method: str, *args: Any, **kwargs: Any) -> DeliveryReceipt:
        """Invoke ``method`` one-way; returns an enqueue receipt, not a result.

        Tells are never retried or deadline-bounded: the receipt only
        acknowledges enqueue, so there is no failure for a policy to react
        to, and blind re-sends would duplicate non-idempotent work.
        """
        return self._runtime.send_one_way(
            self.key,
            method,
            args,
            kwargs,
            caller_endpoint=self.caller_endpoint,
            chain=self.chain,
            parent_span=self._trace,
        )

    def __getattr__(self, name: str) -> RemoteMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return RemoteMethod(self, name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ActorRef) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"<ActorRef {self.key}>"
