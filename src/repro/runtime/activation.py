"""Activations: live instances of virtual actors.

An activation owns the actor instance, its mailbox and its message pump.
The pump enforces Orleans-style *turn-based* concurrency: one message runs
to completion (including its awaits) before the next is dequeued, unless the
actor class opted into reentrancy.  Every message execution charges its CPU
cost to the hosting silo, which is how actor work contends for simulated
hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import (
    ActorDeactivatedError,
    ActorMethodError,
    CancelledError,
    FencedWriteError,
    ReentrancyError,
)
from ..kernel.scheduler import Task
from ..kernel.sync import Event, Queue
from ..storage.serde import snapshot
from .actor import DEFAULT_METHOD_OPTIONS, Actor, ActorContext, method_options
from .key import ActorKey
from .messages import Invocation
from .persistence import StateCell, WritePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import AodbRuntime
    from .silo import Silo

_CLOSE = object()


class Activation:
    """One in-memory incarnation of a virtual actor."""

    def __init__(
        self,
        runtime: "AodbRuntime",
        actor_class: type[Actor],
        key: ActorKey,
        silo: "Silo",
        predecessor_closed: Event | None = None,
    ) -> None:
        self.runtime = runtime
        self._predecessor_closed = predecessor_closed
        self.actor_class = actor_class
        self.key = key
        # The qualified name and the one-element chain suffix are needed on
        # every turn (reentrancy detection, chain extension); format once.
        self._qualified = key.qualified()
        self._self_chain = (self._qualified,)
        self.silo = silo
        context = ActorContext(runtime, key, silo.silo_id)
        context.activation = self  # type: ignore[attr-defined]
        self.instance = actor_class(context)
        capacity = (
            actor_class.mailbox_capacity
            if actor_class.mailbox_capacity is not None
            else runtime.config.mailbox_capacity
        )
        self.mailbox: Queue[Any] = Queue(runtime.scheduler, maxsize=capacity)
        self.closing = False
        self.closed = Event(runtime.scheduler)
        self.broken: BaseException | None = None
        # Quarantine parking: set to the fault new messages should fail
        # with while the hosting silo has lost its membership lease.  The
        # activation is alive (unlike closing) but refuses work.
        self.parked: BaseException | None = None
        self.active_chain: tuple[str, ...] = ()
        # Span of the turn currently executing, so sub-calls made through
        # ``context.actor(...)`` become its children (None when untraced).
        self.active_span: Any = None
        self.last_used = runtime.scheduler.now
        self.messages_handled = 0
        # Per-method dispatch cache: method name -> (bound method, options,
        # resolved base cost).  Everything cached is stable for the life of
        # the activation (config.method_costs is fixed at construction), so
        # the getattr chain and cost resolution run once per method name.
        self._method_cache: dict[str, tuple[Any, dict[str, Any], float]] = {}
        self._inflight = 0
        self._idle_event = Event(runtime.scheduler)
        self._idle_event.set()
        self._timers: dict[str, Task] = {}
        self._pump_task = runtime.scheduler.spawn(
            self._pump(), name=f"pump:{self._qualified}"
        )

    # -- enqueue ---------------------------------------------------------------

    def enqueue(self, invocation: Invocation) -> None:
        """Queue one invocation; raises if the activation is shutting down.

        A message whose call chain already passes through this actor would
        deadlock a busy non-reentrant activation (the classic A→B→A cycle):
        it is either executed interleaved (``allow_chain_reentrancy``,
        Orleans' call-chain reentrancy) or rejected loudly.
        """
        if self.closing:
            raise ActorDeactivatedError(self._qualified)
        if self.parked is not None:
            raise self.parked
        if (
            not self.instance.reentrant
            and self._inflight > 0
            and self._qualified in invocation.chain
        ):
            if getattr(self.actor_class, "allow_chain_reentrancy", False):
                invocation.enqueued_at = self.runtime.scheduler.now
                self._inflight += 1
                self._idle_event.clear()
                self.runtime.scheduler.spawn(
                    self._handle_tracked(invocation),
                    name=f"reentrant:{invocation.describe()}",
                )
                return
            raise ReentrancyError(
                f"{invocation.describe()} would deadlock: call chain "
                f"{' -> '.join(invocation.chain)} re-enters busy "
                f"non-reentrant actor {self.key}"
            )
        invocation.enqueued_at = self.runtime.scheduler.now
        self.mailbox.put_nowait(invocation)

    @property
    def busy(self) -> bool:
        """True while messages are queued or executing."""
        return bool(len(self.mailbox)) or self._inflight > 0

    # -- lifecycle ----------------------------------------------------------------

    async def _start(self) -> None:
        if self._predecessor_closed is not None:
            # A previous activation of this grain is still persisting its
            # state; wait so our state load observes its final flush.
            await self._predecessor_closed.wait()
        # Activation work (CPU charge + state load) is attributed to the
        # pseudo-method ``__activate__`` so profiler totals still sum to the
        # kernel's busy ledger.
        profiler = self.runtime.profiler
        profile = None
        if profiler.enabled:
            mprof = profiler.method_record(self.key.type_name, "__activate__")
            aprof = profiler.activation_record(self.key)
            mprof.calls += 1
            aprof.calls += 1
            profile = (mprof, aprof)
        if self.runtime.config.activation_cost > 0:
            await self.silo.cpu.consume(
                self.runtime.config.activation_cost, profile=profile
            )
        if self.actor_class.durable:
            cell = StateCell(
                self.key,
                self.runtime.grain_storage,
                writer=self.runtime.group_commit,
                fence=self.runtime.acquire_fence(self),
                journal=self.runtime.redo_journal,
            )
            load_started = self.runtime.scheduler.now
            await cell.load()
            if cell.replayed and self.runtime.tracer.enabled:
                # Crash recovery ran: the redo-journal suffix was applied
                # over the stored document.  The span covers the whole load.
                tracer = self.runtime.tracer
                replay = tracer.begin(
                    self.key,
                    "wal-replay",
                    self.silo.silo_id,
                    self.runtime.scheduler.now,
                    start=load_started,
                    method="redo-replay",
                )
                tracer.finish(replay, self.runtime.scheduler.now)
            if profile is not None:
                elapsed = self.runtime.scheduler.now - load_started
                for record in profile:
                    record.storage_wait += elapsed
            self.instance._attach_state_cell(cell)
            if self.actor_class.write_policy is WritePolicy.INTERVAL:
                self.register_timer(
                    "__state_flush__",
                    self.actor_class.write_interval_seconds,
                    "__flush_state__",
                )
        await self.instance.on_activate()

    async def _pump(self) -> None:
        try:
            await self._start()
        except BaseException as exc:  # noqa: BLE001 - surface via replies
            self.broken = exc
            self.closing = True
            self._fail_pending(exc)
            self.runtime._activation_failed(self, exc)
            self.closed.set()
            return
        mailbox = self.mailbox
        empty = mailbox.empty
        get_nowait = mailbox.get_nowait
        handle = self._handle
        reply = self.runtime._reply
        silo_id = self.silo.silo_id
        while True:
            # Buffered fast path: skip the future a plain get() allocates.
            if not empty():
                message = get_nowait()
            else:
                message = await mailbox.get()
            if message is _CLOSE:
                break
            if self.instance.reentrant:
                self._inflight += 1
                self._idle_event.clear()
                self.runtime.scheduler.spawn(
                    self._handle_tracked(message), name="handle"
                )
            else:
                self._inflight += 1
                self._idle_event.clear()
                try:
                    await handle(message)
                except (GeneratorExit, CancelledError):
                    raise  # the pump itself is being torn down
                except BaseException as exc:  # noqa: BLE001 - pump must live
                    # Nothing _handle raises should be able to kill the
                    # mailbox pump; fail the message, keep serving.
                    reply(message, None, exc, silo_id)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle_event.set()
        # Drain-and-close: wait for reentrant handlers still in flight.
        if self._inflight > 0:
            await self._idle_event.wait()
        await self._finalize()

    async def _handle_tracked(self, message: Invocation) -> None:
        try:
            await self._handle(message)
        except (GeneratorExit, CancelledError):
            raise  # activation teardown
        except BaseException as exc:  # noqa: BLE001 - keep serving
            self.runtime._reply(message, None, exc, self.silo.silo_id)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()

    async def _handle(self, invocation: Invocation) -> None:
        runtime = self.runtime
        scheduler = runtime.scheduler
        self.last_used = started = scheduler.now
        invocation.started_at = started
        span = invocation.span
        if span is not None and span.end is None:
            # Mailbox wait: from enqueue until this turn started.  For the
            # first message of a fresh activation this includes activation
            # start (CPU charge, state load, on_activate).
            span.queue += started - invocation.enqueued_at
            span.silo_id = self.silo.silo_id
        if invocation.deadline is not None and started >= invocation.deadline:
            # The caller's deadline already failed the reply (the deadline
            # timer sorts before this dequeue at equal timestamps); running
            # the method would only burn silo CPU on an abandoned request.
            return
        # Continuous profiling: fetch this turn's two accumulation rows once
        # (method-level and activation-level); every charge below adds plain
        # floats into them.  Disabled costs one attribute read.
        profiler = runtime.profiler
        if profiler.enabled:
            profiler.turns += 1
            mprof = profiler.method_record(self.key.type_name, invocation.method)
            aprof = profiler.activation_record(self.key)
            mprof.calls += 1
            aprof.calls += 1
            mailbox_wait = started - invocation.enqueued_at
            mprof.queue_wait += mailbox_wait
            aprof.queue_wait += mailbox_wait
            profile = (mprof, aprof)
        else:
            mprof = aprof = profile = None
        error: BaseException | None = None
        result: Any = None
        method_name = invocation.method
        # System pseudo-methods all start with an underscore; application
        # methods essentially never do, so one character test stands in for
        # three string comparisons on the hot path.
        if method_name and method_name[0] == "_":
            if method_name == "__flush_state__":
                try:
                    flush_started = scheduler.now
                    await self._flush_if_dirty()
                    flush_elapsed = scheduler.now - flush_started
                    if span is not None and span.end is None:
                        span.storage += flush_elapsed
                    if mprof is not None:
                        mprof.storage_wait += flush_elapsed
                        aprof.storage_wait += flush_elapsed
                    runtime._reply(invocation, None, None, self.silo.silo_id)
                except Exception as exc:  # noqa: BLE001 - storage failure
                    # A timer-driven flush failed (e.g. storage throttling):
                    # record it; the state stays dirty and the next interval
                    # retries.
                    runtime._reply(invocation, None, exc, self.silo.silo_id)
                return
            if method_name == "__txn_snapshot__":
                # Transactional undo logging: hand the coordinator an
                # isolated copy of this actor's transactional state.
                runtime._reply(
                    invocation, snapshot(self.instance.state), None, self.silo.silo_id
                )
                return
            if method_name == "__txn_restore__":
                # Copy the undo log in: with copy_messages=False the argument
                # *is* the coordinator's saved snapshot, and a redelivered
                # restore must not find it edited by the restored actor.
                document = snapshot(invocation.args[0])
                self.instance.state.clear()
                self.instance.state.update(document)
                self.instance.mark_dirty()
                runtime._reply(invocation, True, None, self.silo.silo_id)
                return
        entry = self._method_cache.get(method_name)
        if entry is None:
            method = getattr(self.instance, method_name, None)
            if method is None or method_name.startswith("_"):
                entry = (None, DEFAULT_METHOD_OPTIONS, 0.0)
            else:
                options = method_options(
                    getattr(self.actor_class, method_name, method)
                )
                cost = runtime.config.method_costs.get(
                    (self.key.type_name, method_name)
                )
                if cost is None:
                    cost = options["cost"]
                if cost is None:
                    cost = (
                        self.actor_class.default_method_cost
                        if self.actor_class.default_method_cost is not None
                        else runtime.config.default_method_cost
                    )
                entry = (method, options, cost)
            self._method_cache[method_name] = entry
        method, options, cost = entry
        if method is None:
            error = ActorMethodError(
                f"{self.actor_class.__name__} has no method {method_name!r}"
            )
        else:
            if cost > 0:
                overhead = runtime.config.dispatch_overhead_cost
                if overhead > 0 and invocation.batch_cohort > 1:
                    # The cost model splits every method charge into
                    # per-message dispatch overhead plus application work;
                    # members of a K-message envelope share one dispatch, so
                    # each pays work + overhead/K (Reactors-style batched
                    # execution).  Cohort 1 charges full cost, bit-identical
                    # to the unbatched runtime.
                    shared = min(overhead, cost)
                    cost = (cost - shared) + shared / invocation.batch_cohort
                cpu_started = scheduler.now
                await self.silo.cpu.consume(cost, profile=profile)
                if span is not None and span.end is None:
                    # Core-queueing plus service: the silo-contention signal.
                    span.cpu += scheduler.now - cpu_started
            if not self.instance.reentrant:
                # Sub-calls made by this turn carry the extended chain, so
                # cycles back into this (busy) actor are detectable.
                chain = invocation.chain
                self.active_chain = (
                    chain + self._self_chain if chain else self._self_chain
                )
            self.active_span = span
            try:
                result = await method(*invocation.args, **invocation.kwargs)
            except GeneratorExit:
                raise  # activation teardown, not an application error
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                error = exc
            finally:
                self.active_chain = ()
                self.active_span = None
        self.messages_handled += 1
        self.last_used = scheduler.now
        if (
            error is None
            and self.actor_class.durable
            and self.actor_class.write_policy is WritePolicy.WRITE_THROUGH
            and not options["read_only"]
        ):
            self.instance.mark_dirty()
            try:
                flush_started = scheduler.now
                await self._flush_if_dirty()
                flush_elapsed = scheduler.now - flush_started
                if span is not None and span.end is None:
                    span.storage += flush_elapsed
                if mprof is not None:
                    mprof.storage_wait += flush_elapsed
                    aprof.storage_wait += flush_elapsed
            except Exception as exc:  # noqa: BLE001 - surface to the caller
                # Write-through means "durable when acknowledged": if the
                # flush fails (storage throttling, conditional conflict),
                # the caller must see the failure, not a false ack.
                error = exc
        if mprof is not None and error is not None:
            mprof.errors += 1
            aprof.errors += 1
        runtime._reply(invocation, result, error, self.silo.silo_id)

    async def _flush_if_dirty(self) -> None:
        cell = self.instance._state_cell
        if cell is not None and cell.dirty:
            tracer = self.runtime.tracer
            if not tracer.enabled:
                await cell.flush()
                return
            flush_started = self.runtime.scheduler.now
            try:
                await cell.flush()
            except FencedWriteError as exc:
                # A successor fenced this activation out: the write bounced
                # off the storage fence floor (split-brain averted).
                span = tracer.begin(
                    self.key,
                    "fenced-write",
                    self.silo.silo_id,
                    self.runtime.scheduler.now,
                    start=flush_started,
                    method="flush",
                )
                tracer.finish(
                    span,
                    self.runtime.scheduler.now,
                    status="bounced",
                    error=str(exc),
                )
                raise

    def _fail_pending(self, exc: BaseException) -> None:
        for message in self.mailbox.drain_nowait():
            if message is _CLOSE:
                continue
            if message.reply is not None and not message.reply.done():
                message.reply.set_exception(exc)
            self.runtime.tracer.finish(
                message.span,
                self.runtime.scheduler.now,
                status="error",
                error=str(exc),
            )

    def abort(self, fault: BaseException) -> None:
        """Tear the activation down *ungracefully*, as a process crash would.

        Unlike :meth:`close`, nothing is drained or persisted and no
        ``on_deactivate`` hook runs: the pump is cancelled, timers die,
        queued requests fail with ``fault``, and the activation is marked
        closed.  Used by ``Runtime.crash_silo`` and the failure detector;
        the catalog/directory cleanup stays with the caller.
        """
        self.closing = True
        self.broken = fault
        self._pump_task.cancel()
        for timer_name in list(self._timers):
            self.cancel_timer(timer_name)
        self._fail_pending(fault)
        self.closed.set()

    def park(self, fault: BaseException) -> None:
        """Stop serving without tearing down (quarantine).

        Queued and future messages fail with ``fault``; timers stop so the
        parked actor does not keep flushing from the wrong side of a
        partition.  The pump stays alive and ``closing`` stays False, so a
        later :meth:`close` (silo shutdown) or :meth:`abort` still works.
        """
        self.parked = fault
        tracer = self.runtime.tracer
        if tracer.enabled:
            span = tracer.begin(
                self.key,
                "quarantine-park",
                self.silo.silo_id,
                self.runtime.scheduler.now,
                method="park",
            )
            tracer.finish(
                span,
                self.runtime.scheduler.now,
                status="parked",
                error=str(fault),
            )
        for timer_name in list(self._timers):
            self.cancel_timer(timer_name)
        self._fail_pending(fault)

    async def close(self) -> None:
        """Gracefully stop: drain the mailbox, persist, run on_deactivate."""
        if self.closing:
            await self.closed.wait()
            return
        self.closing = True
        self.mailbox.put_nowait(_CLOSE)
        await self.closed.wait()

    async def _finalize(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        try:
            await self.instance.on_deactivate()
            if (
                self.actor_class.durable
                and self.actor_class.write_policy is not WritePolicy.MANUAL
            ):
                await self._flush_if_dirty()
        except BaseException as exc:  # noqa: BLE001 - report, never hang
            self.runtime._activation_failed(self, exc)
        finally:
            self.closed.set()

    # -- timers ---------------------------------------------------------------------

    def register_timer(
        self, name: str, period: float, method: str, *args: Any
    ) -> None:
        """Run ``method`` through the mailbox every ``period`` seconds."""
        if period <= 0:
            raise ValueError("timer period must be positive")
        self.cancel_timer(name)

        async def tick() -> None:
            while not self.closing:
                await self.runtime.scheduler.sleep(period)
                if self.closing:
                    return
                invocation = Invocation(
                    target=self.key,
                    method=method,
                    args=tuple(snapshot(arg) for arg in args),
                    caller_endpoint=self.silo.silo_id,
                    one_way=True,
                )
                tracer = self.runtime.tracer
                if tracer.enabled:
                    # Timer fires start fresh causal trees: nothing "called"
                    # them, the clock did.
                    invocation.span = tracer.begin(
                        self.key,
                        "timer",
                        self.silo.silo_id,
                        self.runtime.scheduler.now,
                        method=method,
                    )
                try:
                    self.enqueue(invocation)
                except ActorDeactivatedError:
                    tracer.finish(
                        invocation.span,
                        self.runtime.scheduler.now,
                        status="error",
                        error="actor deactivated",
                    )
                    return

        self._timers[name] = self.runtime.scheduler.spawn(
            tick(), name=f"timer:{self.key}:{name}"
        )

    def cancel_timer(self, name: str) -> bool:
        """Cancel a registered timer; returns True if it existed."""
        timer = self._timers.pop(name, None)
        if timer is None:
            return False
        timer.cancel()
        return True
