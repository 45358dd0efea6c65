"""Routing: how a call reaches its activation and how its reply returns.

:class:`Routing`, mixed into :class:`~repro.runtime.runtime.AodbRuntime`,
interns actor keys, builds invocations, resolves the target through the
grain directory or places it, puts the message on the wire (alone or in a
batching envelope), queues it where it lands and sends the result back;
retried and deadline-bounded asks wrap the plain ask.  No task runs per
message: each hop is one timer event, or none at zero wire delay
(DESIGN §11), and the timer carries the hop as one argument tuple to a
landing method bound once per runtime.  It owns the interned keys, the
envelope batcher and the ask-latency histogram; the runtime owns the rest.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any

from ..errors import (
    ActorDeactivatedError,
    DeadlineExceededError,
    MailboxOverflowError,
    QuarantinedSiloError,
    ReentrancyError,
    SiloUnavailableError,
)
from ..kernel.futures import _PENDING as _F_PENDING
from ..kernel.futures import Future
from ..net.batching import EnvelopeBatcher
from ..obs.trace import Span
from ..storage.serde import snapshot
from .activation import Activation
from .key import ActorKey
from .messages import DeliveryReceipt, Invocation
from .reference import ActorRef
from .resilience import RetryPolicy

CLIENT_ENDPOINT = "client"
# Placement strategy for actor types that do not choose one (Orleans'
# default: random is adequate for load balancing at scale).
DEFAULT_PLACEMENT = "random"


class Routing:
    """Ask, tell and reply paths of :class:`AodbRuntime`."""

    def _init_routing(self) -> None:
        # Interned ActorKeys: ref() runs once per outbound call, and keys
        # are immutable pure values, so the frozen-dataclass construction
        # (+ validation) is paid once per distinct actor instead of per call.
        self._actor_keys: dict[tuple[str, str], ActorKey] = {}
        # A hop with wire delay is a timer that lands it: these landing
        # methods are bound once here, not once per hop.
        self._land_request = self._arrive
        self._land_reply = self._reply_landed
        # Ingestion fast path: coalesce same-path deliveries into envelopes.
        self._batcher: EnvelopeBatcher | None = None
        if self.config.batch_max_delay is not None:
            self._batcher = EnvelopeBatcher(
                self.network,
                self.scheduler,
                self._arrive,
                lambda invocation, _, exc: self._reply(invocation, None, exc, None),
                max_delay=self.config.batch_max_delay,
            )

    def _register_routing_metrics(self) -> None:
        registry = self.metrics
        if self._batcher is not None:
            batcher = self._batcher
            registry.register_probe("batch.flushes", lambda: batcher.flushes)
            registry.register_probe(
                "batch.immediate_flushes", lambda: batcher.immediate_flushes
            )
            # Coalescing effectiveness: how many messages shared each envelope.
            batcher.cohort_histogram = registry.histogram(
                "batch.cohort_size", boundaries=(1, 2, 4, 8, 16, 32, 64)
            )
        # End-to-end ask latency feeds the p99 SLO rule; observed only on
        # profiled runs so the unprofiled reply path stays untouched.
        self._ask_latency = self.metrics.histogram("runtime.ask_latency_seconds")

    # -- references and messaging ------------------------------------------------------

    def ref(
        self,
        type_name: str,
        actor_id: str,
        caller_endpoint: str = CLIENT_ENDPOINT,
        chain: tuple[str, ...] = (),
        trace: Span | None = None,
    ) -> ActorRef:
        """A reference to the virtual actor ``type_name/actor_id``."""
        pair = (type_name, actor_id)
        key = self._actor_keys.get(pair)
        if key is None:
            self.actor_type(type_name)  # fail fast on unknown types
            key = ActorKey(type_name, actor_id)
            self._actor_keys[pair] = key
        return ActorRef(self, key, caller_endpoint, chain, trace=trace)

    def send(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        deadline_at: float | None = None,
        parent_span: Span | None = None,
        attempt: int = 0,
    ) -> Future[Any]:
        """Route an ask-style invocation; returns the reply future.

        ``deadline_at`` is an absolute virtual time: if the reply is still
        pending then, it fails with
        :class:`~repro.errors.DeadlineExceededError` and the activation
        skips the invocation if it is still queued.
        """
        self.stats.asks += 1
        invocation = self._make_invocation(
            key, method, args, kwargs, caller_endpoint, chain, "ask", parent_span
        )
        if attempt and invocation.span is not None:
            invocation.span.attempt = attempt
        invocation.deadline = deadline_at
        # Future() with the constructor frame elided: one reply per ask.
        reply: Future[Any] = Future.__new__(Future)
        reply._state = _F_PENDING
        reply._value = None
        reply._exception = None
        reply._cb0 = None
        reply._callbacks = None
        reply.name = "reply"
        invocation.reply = reply
        if deadline_at is not None:
            self._arm_deadline(invocation, deadline_at)
        self._route(invocation)
        return reply

    def _arm_deadline(self, invocation: Invocation, deadline_at: float) -> None:
        reply = invocation.reply

        def expire() -> None:
            if reply is not None and not reply.done():
                self.stats.deadlines_exceeded += 1
                reply.set_exception(
                    DeadlineExceededError(
                        f"{invocation.describe()} missed its deadline "
                        f"(t={deadline_at:.3f})"
                    )
                )
                self.tracer.finish(
                    invocation.span,
                    self.scheduler.now,
                    status="deadline",
                    error="deadline exceeded",
                )

        # The timer must not outlive the call: deadline-wrapped asks almost
        # always resolve early, and an uncancelled timer per ask is exactly
        # the heap leak Scheduler.timeout used to have.  Cancel on reply.
        handle = self.scheduler.call_at(deadline_at, expire)
        reply.add_done_callback(lambda _done: handle.cancel())

    def send_resilient(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
        parent_span: Span | None = None,
    ) -> Future[Any]:
        """Ask with a call deadline and/or transparent retries.

        ``deadline`` is *relative* (virtual seconds from now) and bounds the
        whole call including every retry; ``retry`` governs which transient
        errors are retried and how attempts back off.  The returned future
        resolves with the first successful attempt's result, or rejects with
        the last error once the policy is exhausted or the deadline passes.
        """
        deadline_at = (
            self.scheduler.now + deadline if deadline is not None else None
        )
        if retry is None:
            return self.send(
                key, method, args, kwargs, caller_endpoint,
                chain=chain, deadline_at=deadline_at, parent_span=parent_span,
            )
        retry.validate()
        outer: Future[Any] = Future("resilient")
        backoff_rng = self.rng.stream("retry")
        limit = deadline_at if deadline_at is not None else math.inf
        # Retried asks get an umbrella span; each attempt hangs under it, so
        # the trace shows attempts (with their own breakdowns) *and* the
        # total the caller experienced, backoff sleeps included.
        call_span = self.tracer.begin(
            key,
            "retrying-ask",
            caller_endpoint,
            self.scheduler.now,
            parent=parent_span,
            method=method,
        )

        async def drive() -> None:
            attempt = 0
            while True:
                attempt += 1
                attempt_deadline = deadline_at
                if retry.attempt_timeout is not None:
                    cap = self.scheduler.now + retry.attempt_timeout
                    attempt_deadline = min(limit, cap)
                inner = self.send(
                    key, method, args, kwargs, caller_endpoint,
                    chain=chain, deadline_at=attempt_deadline,
                    parent_span=call_span if call_span is not None else parent_span,
                    attempt=attempt,
                )
                try:
                    result = await inner
                except BaseException as exc:  # noqa: BLE001 - policy decides
                    if outer.done():
                        return
                    # Give up once the deadline has passed, the policy says
                    # so, or the backoff leaves no room for another attempt.
                    now = self.scheduler.now
                    if (
                        now >= limit
                        or not retry.should_retry(exc, attempt)
                        or now + (delay := retry.delay_for(attempt, backoff_rng, exc))
                        >= limit
                    ):
                        outer.set_exception(exc)
                        self.tracer.finish(
                            call_span, self.scheduler.now,
                            status="error", error=str(exc),
                        )
                        return
                    self.stats.calls_retried += 1
                    if delay > 0:
                        await self.scheduler.sleep(delay)
                    if outer.done():
                        return
                    continue
                if not outer.done():
                    outer.set_result(result)
                self.tracer.finish(call_span, self.scheduler.now)
                return

        self.scheduler.spawn(drive(), name="retry")
        return outer

    def send_one_way(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        parent_span: Span | None = None,
        kind: str = "tell",
    ) -> DeliveryReceipt:
        """Route a tell-style invocation (no reply).

        ``kind`` names the span kind when tracing: plain tells say "tell",
        the reminder pump says "reminder".
        """
        self.stats.tells += 1
        self._route(
            self._make_invocation(
                key, method, args, kwargs, caller_endpoint, chain, kind, parent_span
            )
        )
        return DeliveryReceipt(key, method, self.scheduler.now)

    def _make_invocation(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...],
        kind: str,
        parent_span: Span | None,
    ) -> Invocation:
        """The invocation of one call, with its ``kind`` span open if tracing."""
        if self.config.copy_messages:
            args = tuple(snapshot(arg) for arg in args)
            kwargs = {name: snapshot(value) for name, value in kwargs.items()}
        else:
            kwargs = dict(kwargs)
        invocation = Invocation(
            target=key,
            method=method,
            args=args,
            kwargs=kwargs,
            caller_endpoint=caller_endpoint,
            sent_at=self.scheduler.now,
            chain=chain,
        )
        if self.tracer.enabled:
            invocation.span = self.tracer.begin(
                key,
                kind,
                caller_endpoint,
                self.scheduler.now,
                parent=parent_span,
                method=method,
            )
        return invocation

    # -- dispatch ---------------------------------------------------------------------

    def _resolve_activation(self, key: ActorKey, caller_endpoint: str) -> Activation:
        """Find or create (synchronously) the activation for ``key``."""
        silo_id = self.directory.lookup(key)
        predecessor = None
        if silo_id is not None:
            silo = self._silos.get(silo_id)
            if silo is not None and (silo.crashed or silo.quarantined):
                if self.system_store.status_of(silo_id) == "active":
                    # The cluster still believes the silo is alive, so the
                    # registration is authoritative: the call goes to a dead
                    # endpoint and fails.  Retry policies mask this window;
                    # the failure detector (or lease lapse) ends it.
                    raise SiloUnavailableError(
                        f"silo {silo_id!r} is not responding"
                    )
                # Membership no longer vouches for the silo: the entry is
                # stale, repair it and re-place on a surviving silo.  A
                # quarantined silo keeps its (parked) catalog entry — the
                # rejoin path aborts it; only a crash empties the catalog.
                self.directory.unregister(key)
                if silo.crashed:
                    silo.remove_activation(key)
            else:
                activation = silo.get_activation(key) if silo is not None else None
                if activation is not None and not activation.closing:
                    return activation
                # Stale entry (collected, closing, or silo gone): clear it
                # and fall through to fresh placement.
                self.directory.unregister(key)
                if activation is not None:
                    silo.remove_activation(key)
                    predecessor = activation
        actor_class = self.actor_type(key.type_name)
        strategy_name = actor_class.placement or DEFAULT_PLACEMENT
        strategy = self.strategies.get(strategy_name)
        if strategy is None:
            raise ValueError(
                f"unknown placement strategy {strategy_name!r} "
                f"for actor type {key.type_name!r}"
            )
        # Draining and stopping silos are mid-decommission: they keep
        # serving what they host, but strategies must never place *new*
        # activations there (prefer-local would otherwise pin fresh actors
        # onto a silo that is about to shut down, and an ask racing
        # shutdown_silo would re-place its just-deactivated actor back on
        # the stopping silo, orphaning it when the silo is removed).
        active = [
            s
            for s in self.system_store.active_silos()
            if s in self._silos
            and not self._silos[s].draining
            and not self._silos[s].stopping
        ]
        if not active:
            raise SiloUnavailableError("no active silos in the cluster")
        silo_id = strategy.choose(key, caller_endpoint, active)
        self.metrics.counter(
            "placement.decisions", strategy=strategy_name, silo=silo_id
        ).inc()
        silo = self._silos[silo_id]
        if silo.crashed or silo.quarantined:
            # Membership hasn't noticed the crash yet, so placement can
            # still pick the dead silo — the call fails like a connection
            # to a dead host would.
            raise SiloUnavailableError(f"silo {silo_id!r} is not responding")
        stale = silo.get_activation(key)
        if stale is not None:
            # A dangling predecessor from a concurrent migration is still
            # draining on the chosen silo: the directory stopped pointing at
            # it when it was repointed, so it never hit the stale-entry branch
            # above.  Evict it from the catalog (its drain keeps running) and,
            # absent a directory-entry predecessor, use its close as the
            # barrier so the fresh activation cannot load state before the
            # dangling link's flush lands.
            silo.remove_activation(key)
            if predecessor is None:
                predecessor = stale
        self.directory.register(key, silo_id)
        activation = Activation(
            self,
            actor_class,
            key,
            silo,
            predecessor_closed=predecessor.closed if predecessor is not None else None,
        )
        silo.add_activation(activation)
        self.stats.activations_created += 1
        if self.database is not None:
            self.database.note_activation(key)
        return activation

    def _route(self, invocation: Invocation) -> None:
        """Resolve the target and put the message on the wire, in the
        sender's event: the hop costs one timer event, none at zero delay."""
        reply = invocation.reply
        if reply is not None and reply._state is not _F_PENDING:
            # A deadline (or chaos) settled the caller's future: re-routing
            # would run an abandoned request on a successor activation.
            return
        source = invocation.caller_endpoint
        try:
            activation = self._resolve_activation(invocation.target, source)
            target = activation.silo_id
            if self._batcher is not None:
                self._batcher.join(source, target, (invocation, activation))
                return
            delay = self.network.plan_envelope(source, target, 1)
        except Exception as exc:  # noqa: BLE001 - surfaced on the reply
            self._reply(invocation, None, exc, None)
            return
        if delay is None:
            return  # lost on the wire: only the caller's deadline notices
        if delay > 0:
            self.scheduler.call_at(
                self.scheduler.now + delay,
                partial(self._land_request, invocation, activation, delay, 1),
            )
        else:
            self._arrive(invocation, activation, 0.0, 1)

    def _arrive(
        self,
        invocation: Invocation,
        activation: Activation,
        delay: float,
        cohort: int,
    ) -> None:
        """The message lands after ``delay`` (wire time, plus the batch wait
        when it rode an envelope of ``cohort``): queue it on the activation.

        The envelope batcher, an unbatched hop's wire timer and a zero-delay
        hop all call it alike (an unbatched message is a cohort of 1).
        """
        invocation.batch_cohort = cohort
        span = invocation.span
        if span is not None and span.end is None:
            span.network += delay
        try:
            activation.enqueue(invocation)
        except (MailboxOverflowError, ReentrancyError, QuarantinedSiloError) as exc:
            # A full mailbox, a would-be deadlock, or a parked (alive, never
            # closing) activation on a leaseless silo: fail the call fast.
            if isinstance(exc, MailboxOverflowError):
                self.stats.dropped_messages += 1
            self._reply(invocation, None, exc, None)
            return
        except ActorDeactivatedError:
            # Closing: route to the successor, one event past the barrier so
            # the closer (_deactivate, crash_silo) finishes its cleanup first.
            closed, scheduler = activation.closed, self.scheduler
            if closed.is_set():
                self._route(invocation)
            else:
                closed.wait().add_done_callback(
                    lambda _: scheduler.call_at(scheduler.now, self._route, invocation)
                )
            return
        network = self.network
        if network.faults is not None and network.should_duplicate(
            invocation.caller_endpoint, activation.silo_id
        ):
            # Chaos: the invocation arrives twice.  The one-shot reply
            # dedupes an ask; a one-way runs twice (at-least-once hazard).
            try:
                activation.enqueue(invocation)
            except Exception:  # noqa: BLE001 - duplicate best-effort
                pass

    def _reply(
        self,
        invocation: Invocation,
        result: Any,
        error: BaseException | None,
        from_silo: str | None,
    ) -> None:
        """Send a method result (or error) back to the caller.

        With no ``from_silo`` the call failed before it reached a turn
        (routing, or an activation refusing it): the caller hears now.
        """
        if error is not None:
            self.stats.errors += 1
            self.stats.last_error = f"{invocation.describe()}: {error}"
        reply = invocation.reply
        if reply is None or from_silo is None:
            # One-way (done the moment the method returns), or no hop back.
            if reply is not None and not reply.done():
                reply.set_exception(error)
            status, text = ("ok", "") if error is None else ("error", str(error))
            self.tracer.finish(invocation.span, self.scheduler.now, status, text)
            return
        if error is None and self.config.copy_messages:
            # Copy at return time: the caller must see the result as of the
            # method's return, not turns that ran while the reply was in
            # flight.
            result = snapshot(result)
        try:
            delay = self.network.plan_envelope(from_silo, invocation.caller_endpoint, 1)
        except KeyError as exc:
            # A silo left the network during the turn: raising would fail
            # the turn with a second reply that cannot be sent either, so
            # drop it.
            self.stats.dropped_replies += 1
            self.tracer.finish(
                invocation.span, self.scheduler.now, "error", f"reply dropped: {exc}"
            )
            return
        if delay is None:
            return  # lost on the wire: only the caller's deadline notices
        if delay > 0:
            self.scheduler.call_at(
                self.scheduler.now + delay,
                self._land_reply,
                (invocation, result, error, delay),
            )
        else:
            self._reply_landed((invocation, result, error, 0.0))

    def _reply_landed(self, hop: tuple) -> None:
        """The reply lands: ``hop`` is ``(invocation, result, error, delay)``
        (one tuple, so the wire timer needs no partial)."""
        invocation, result, error, delay = hop
        span = invocation.span
        if span is not None and span.end is None:
            span.network += delay
        reply = invocation.reply
        if reply._state is not _F_PENDING:
            # Deadline or chaos already resolved the caller's future;
            # the span was finished by whoever resolved it.
            return
        if error is not None:
            reply.set_exception(error)
        else:
            reply.set_result(result)
        self.stats.replies += 1
        if self.profiler.enabled:
            self._ask_latency.observe(self.scheduler.now - invocation.sent_at)
        status, text = ("ok", "") if error is None else ("error", str(error))
        self.tracer.finish(span, self.scheduler.now, status, text)
