"""Activations: live instances of virtual actors.

An activation owns the actor instance and its mailbox, and is the actor's
``context``: what an actor asks of the runtime (the time, references to
other actors, timers, reminders) it asks of its activation.  It serves the
mailbox with Orleans-style *turn-based* concurrency: one message runs to
completion (including its awaits) before the next is dequeued, unless the
actor class opted into reentrancy.  Every message execution charges its CPU
cost to the hosting silo, which is how actor work contends for simulated
hardware.

No task drives the mailbox: callbacks serve it, each continuing in one ready
event where a task would resume, so the event order is a task's.  The rest
of a turn (method, flush, reply) is a coroutine stepped in the turn's own
event; if it suspends, the turn drives it on, one ready event per resume.
Boot and close are stepped the same way and adopted as a task only if they
suspend.  Timers are callbacks too (:class:`_Timer`).

An idle activation is what a platform of one actor per sensor keeps
resident by the hundred thousand, so it holds only what it uses: the mailbox
deque exists only while messages queue, the timer table is created by the
first timer, the ``closed`` event by its first reader, a turn table only
while turns interleave, and method dispatch reads a table shared by every
activation of the type (``AodbRuntime._method_table``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ..errors import (
    ActorDeactivatedError,
    ActorMethodError,
    CancelledError,
    FencedWriteError,
    MailboxOverflowError,
    ReentrancyError,
)
from ..kernel.futures import _CANCELLED, _PENDING, _RESOLVED, Future
from ..kernel.scheduler import Task
from ..kernel.sync import Event
from ..storage.serde import snapshot
from .actor import Actor
from .key import ActorKey
from .messages import Invocation
from .persistence import WritePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .reference import ActorRef
    from .runtime import AodbRuntime
    from .silo import Silo

_CLOSE = object()
#: ``Activation._wait`` values that only the activation itself ends (never
#: settled futures): idle for the next message, and draining after ``_CLOSE``
#: while interleaved turns still run.
_IDLE: Future[None] = Future("idle")
_DRAIN: Future[None] = Future("drain")


class Activation:
    """One in-memory incarnation of a virtual actor."""

    __slots__ = (
        "runtime", "_predecessor_closed", "actor_class", "key", "_qualified",
        "_self_chain", "silo", "silo_id", "instance", "mailbox", "closing",
        "_closed", "broken", "parked", "active_chain", "active_span",
        "last_used", "messages_handled", "_methods", "_inflight", "_timers",
        "_wait", "_handed", "fence", "etag", "dirty",
    )

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
        self.silo_id = silo.silo_id
        self.instance = actor_class(self)
        # Messages waiting for the serial path: None while none has to
        # queue, and again once the serial path drains it and goes idle.
        self.mailbox: deque[Any] | None = None
        self.closing = False
        # The ``closed`` event once something reads it; until then a flag,
        # True once closed (see :attr:`closed`).
        self._closed: Event | bool = False
        self.broken: BaseException | None = None
        # Quarantine parking: set to the fault new messages should fail
        # with while the hosting silo has lost its membership lease.  The
        # activation is alive (unlike closing) but refuses work.
        self.parked: BaseException | None = None
        self.active_chain: tuple[str, ...] = ()
        # Span of the turn currently executing, so sub-calls made through
        # :meth:`actor` become its children (None when untraced).
        self.active_span: Any = None
        self.last_used = runtime.scheduler.now
        self.messages_handled = 0
        # The type's method table, shared with every activation of it.
        self._methods = runtime._method_table(key.type_name)
        # Turns started and not yet over: None, the one turn, or, while
        # turns interleave, a dict of them in start order.
        self._inflight: _Turn | dict[_Turn, None] | None = None
        self._timers: dict[str, _Timer] | None = None
        # What the serial path (boot, one-at-a-time turns, close) is parked
        # on: _IDLE, a CPU timer, _DRAIN, a suspended _Turn or an adopted
        # Task — None (or settled) while it runs.  ``_handed``: a message
        # handed over idle.
        self._wait: Any = None
        self._handed: Any = None
        # Durable state (the document is ``instance.state``): the fence token
        # every write carries, None until a durable activation has loaded
        # (and for good in a plain one); the etag the next conditional write
        # is based on; and whether the document changed since it was written.
        self.fence: int | None = None
        self.etag = 0
        self.dirty = False
        # Boot runs in its own ready event; its coroutine exists only then.
        runtime.scheduler._call_soon(Activation._boot, self)

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
        invocation.enqueued_at = self.runtime.scheduler.now
        if (
            not self.instance.reentrant
            and self._inflight
            and self._qualified in invocation.chain
        ):
            if not self.actor_class.allow_chain_reentrancy:
                raise ReentrancyError(
                    f"{invocation.describe()} would deadlock: call chain "
                    f"{' -> '.join(invocation.chain)} re-enters busy "
                    f"non-reentrant actor {self.key}"
                )
            self._interleave(invocation)
            return
        self._post(invocation)

    def _post(self, message: Any) -> None:
        """Hand ``message`` to the idle serial path, or queue it."""
        if self._wait is _IDLE:
            # Taken in one ready event, not inline (see the module docstring).
            self._wait = None
            self._handed = message
            self.runtime.scheduler._call_soon(Activation._serve, self)
            return
        mailbox = self.mailbox
        if mailbox is None:
            self.mailbox = mailbox = deque()
        capacity = self.actor_class.mailbox_capacity
        # The close barrier is no message: a full mailbox still takes it.
        if 0 < capacity <= len(mailbox) and message is not _CLOSE:
            raise MailboxOverflowError(
                f"queue full (maxsize={capacity}); item dropped by caller"
            )
        mailbox.append(message)

    def _interleave(self, invocation: Invocation) -> None:
        """Start a turn beside the serial path (reentrancy) in a ready event."""
        self.runtime.scheduler._call_soon(_Turn.launch, _Turn(self, invocation, False))

    @property
    def closed(self) -> Event:
        """Set once the activation has closed.

        Most activations close with nobody watching, so the event is built
        by its first reader (already set if the activation closed before).
        """
        closed = self._closed
        if type(closed) is not Event:
            event = Event(self.runtime.scheduler)
            if closed:
                event.set()
            self._closed = closed = event
        return closed

    def _set_closed(self) -> None:
        closed = self._closed
        if type(closed) is Event:
            closed.set()
        else:
            self._closed = True

    @property
    def busy(self) -> bool:
        """True while messages are queued or executing."""
        return bool(self.mailbox or self._inflight)

    def _serve(self) -> None:
        """Run messages in order until a turn waits or none is left."""
        if self.broken is not None:
            return  # aborted: nothing is served any more
        message = self._handed
        self._handed = None
        while True:
            if message is None:
                # Re-read: a turn that ran inline may have queued the first.
                queued = self.mailbox
                if not queued:
                    break
                message = queued.popleft()
            if message is _CLOSE:
                if not self._inflight:
                    self._close_now()
                else:
                    self._wait = _DRAIN  # the last interleaved turn closes
                return
            if self.instance.reentrant:
                self._interleave(message)
            else:
                if not _Turn(self, message, True).launch():
                    return
            message = None
        self._wait = _IDLE
        self.mailbox = None  # drained: an idle activation keeps no deque

    def _drive(self, coro: Any) -> None:
        """Step a lifecycle coroutine now; the kernel adopts it if it waits."""
        try:
            yielded = coro.send(None)
        except StopIteration:
            return  # finished (and it may have parked the serial path itself)
        self._wait = self.runtime.scheduler.adopt(coro, yielded)

    # -- lifecycle ----------------------------------------------------------------

    def _boot(self) -> None:
        if self.broken is None:  # not aborted before its first event
            self._drive(self._activate())

    async def _activate(self) -> None:
        try:
            await self._start()
        except BaseException as exc:  # noqa: BLE001 - surface via replies
            self.broken = exc
            self.closing = True
            self._fail_pending(exc)
            self.runtime._activation_failed(self, exc)
            self._set_closed()
            return
        self._serve()

    async def _start(self) -> None:
        predecessor_closed = self._predecessor_closed
        if predecessor_closed is not None:
            # A previous activation of this grain is still persisting its
            # state; wait so our state load observes its final flush.
            self._predecessor_closed = None
            await predecessor_closed.wait()
        # Activation work (CPU charge + state load) is attributed to the
        # pseudo-method ``__activate__`` so profiler totals still sum to the
        # kernel's busy ledger.
        profiler = self.runtime.profiler
        profile = None
        if profiler.enabled:
            profile = profiler.turn_records(self.key, "__activate__", 0.0)
        if self.runtime.config.activation_cost > 0:
            await self.silo.cpu.consume(
                self.runtime.config.activation_cost, profile=profile
            )
        if self.actor_class.durable:
            load_started = self.runtime.scheduler.now
            if await self._load_state():
                # Crash recovery ran: the redo-journal suffix was applied
                # over the stored document.  The span covers the whole load.
                self.runtime.tracer.emit(
                    self.key,
                    "wal-replay",
                    self.silo_id,
                    self.runtime.scheduler.now,
                    start=load_started,
                    method="redo-replay",
                )
            if profile is not None:
                elapsed = self.runtime.scheduler.now - load_started
                for record in profile:
                    record.storage_wait += elapsed
            if self.actor_class.write_policy is WritePolicy.INTERVAL:
                self.register_timer(
                    "__state_flush__",
                    self.actor_class.write_interval_seconds,
                    "__flush_state__",
                )
        await self.instance.on_activate()

    async def _load_state(self) -> bool:
        """Load the state document into ``instance.state``; True if the redo
        journal replayed a record over it.

        First the activation acquires its fence and raises the store's (and
        journal's) fence floor to it: from then on a zombie predecessor's
        in-flight write is rejected, even one that lands before this
        activation's first.  Then the fenced redo suffix is replayed over
        the stored document: the recovered state is dirty (it has not been
        written) but no longer lost.  The journal is the runtime's at call
        time, so an activation loaded before ``enable_redo_journal()`` is
        called replays nothing, and its later writes truncate the journal.
        """
        runtime = self.runtime
        store = runtime.grain_storage
        journal = runtime.redo_journal
        storage_key = "state/" + self._qualified
        fence = runtime.acquire_fence(self)
        await store.advance_fence(storage_key, fence)
        if journal is not None:
            journal.advance_fence(storage_key, fence)
        item = await store.try_get(storage_key)
        instance = self.instance
        if item is None:
            instance.state = {}
            self.etag = 0
        else:
            instance.state = dict(item.value)
            self.etag = item.etag
        self.dirty = False
        replayed = False
        if journal is not None:
            record = journal.replay_for(storage_key, self.etag, fence)
            if record is not None:
                # The journal's record outlives this activation (the next
                # append is deduplicated against it, a later replay reads
                # it again), so the live document must share no container
                # with it.
                instance.state = snapshot(record.document)
                self.dirty = replayed = True
        self.fence = fence  # loaded: writes, the redo pump and scram may run
        return replayed

    async def _write_state(self, direct: bool = False) -> None:
        """Write the state document: a put conditional on the etag and
        stamped with the fence, so the store rejects a stale writer.

        ``direct=True`` bypasses the group-commit writer (the quarantine
        scram flush must not sit in a commit window while the silo is being
        fenced off).  A fence bounce is recorded in the ``storage`` ring of
        the attached flight recorder, whichever store layer raised it.  A
        landed write truncates the journal records it covers; one journaled
        while the put was in flight survives, re-based onto the landed
        etag, and the state stays dirty until a later write covers it.
        """
        runtime = self.runtime
        storage_key = "state/" + self._qualified
        writer = runtime.group_commit
        target = runtime.grain_storage if direct or writer is None else writer
        journal = runtime.redo_journal
        # What this put covers: the records journaled before it is issued.
        covered = 0 if journal is None else journal.last_seq
        try:
            self.etag = await target.put(
                storage_key,
                self.instance.state,
                expected_etag=self.etag,
                fence=self.fence,
            )
        except FencedWriteError:
            recorder = runtime.scheduler.recorder
            if recorder is not None:
                recorder.storage.record("fenced-bounce", storage_key, self.fence)
            raise
        if journal is None:
            self.dirty = False
        else:
            journal.truncate(storage_key, covered, self.etag)
            self.dirty = journal.pending_records(storage_key) > 0

    async def _flush_if_dirty(self, span: Any = None, profile: Any = None) -> None:
        """Persist dirty state, charging the flush to the turn's ``span``
        (``storage``) and ``profile`` rows (``storage_wait``) if given.

        The one flush path of a live activation (write-through, the interval
        timer, ``write_state`` and deactivation): the actor's
        ``snapshot_state`` runs first, so state kept outside the document
        (a channel's window) is written as it is now."""
        if not self.dirty or self.fence is None:
            return
        self.instance.snapshot_state()
        scheduler = self.runtime.scheduler
        started = scheduler.now
        try:
            await self._write_state()
        except FencedWriteError as exc:
            # A successor fenced this activation out: the write bounced
            # off the storage fence floor (split-brain averted).
            self.runtime.tracer.emit(
                self.key,
                "fenced-write",
                self.silo_id,
                scheduler.now,
                start=started,
                method="flush",
                status="bounced",
                error=str(exc),
            )
            raise
        elapsed = scheduler.now - started
        if span is not None and span.end is None:
            span.storage += elapsed
        if profile is not None:
            for record in profile:
                record.storage_wait += elapsed

    def _fail_pending(self, exc: BaseException, in_flight: Any = ()) -> None:
        queued = self.mailbox or ()
        self.mailbox = None
        for message in [*in_flight, *queued]:
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
        ``on_deactivate`` hook runs: the serial path is cancelled (a waiting
        coroutine gets CancelledError at its await), timers die, queued and
        in-flight requests fail with ``fault``, and the activation is marked
        closed.  Used by ``Runtime.crash_silo`` and the failure detector;
        the catalog/directory cleanup stays with the caller.
        """
        self.closing = True
        self.broken = fault
        wait = self._wait
        self._wait = None
        if type(wait) is _Turn or type(wait) is Task:
            wait.cancel()
        elif wait is not None and wait._state is _PENDING:
            # Parked: cancelling costs one ready event, as a task's does.
            self.runtime.scheduler._call_soon(Activation._serve, self)
        self._stop_timers()
        # The requests it was executing go down with it: their replies fail
        # now, and the abandoned turns send nothing (they check ``broken``).
        inflight = self._inflight
        if inflight is None:
            in_flight = []
        elif type(inflight) is _Turn:
            in_flight = [inflight.invocation]
        else:
            in_flight = [turn.invocation for turn in inflight]
        if self._handed is not None:
            in_flight.append(self._handed)
        self._fail_pending(fault, in_flight)
        self._set_closed()

    def park(self, fault: BaseException) -> None:
        """Stop serving without tearing down (quarantine).

        Queued and future messages fail with ``fault``; timers stop so the
        parked actor does not keep flushing from the wrong side of a
        partition.  The activation stays and ``closing`` stays False, so a
        later :meth:`close` (silo shutdown) or :meth:`abort` still works.
        """
        self.parked = fault
        self.runtime.tracer.emit(
            self.key,
            "quarantine-park",
            self.silo_id,
            self.runtime.scheduler.now,
            method="park",
            status="parked",
            error=str(fault),
        )
        self._stop_timers()
        self._fail_pending(fault)

    async def close(self) -> None:
        """Gracefully stop: drain the mailbox, persist, run on_deactivate."""
        if not self.closing:
            self.closing = True
            self._post(_CLOSE)
        await self.closed.wait()

    def _close_now(self) -> None:
        if self.broken is None:  # not aborted while draining
            self._drive(self._finalize())

    async def _finalize(self) -> None:
        self._stop_timers()
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
            self._set_closed()

    # -- what the actor asks of its runtime (``Actor.context``) -------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.runtime.scheduler.now

    def actor(self, type_name: str, actor_id: str) -> "ActorRef":
        """A reference to another actor, calling from this silo.

        The reference carries the current call chain, so cycles through
        non-reentrant actors are detected instead of deadlocking.  It also
        carries the current turn's trace span, so traced calls fan out into
        a causal tree.
        """
        return self.runtime.ref(
            type_name, actor_id, self.silo_id, self.active_chain, self.active_span
        )

    def register_reminder(self, name: str, period: float) -> None:
        """Register a durable reminder; delivered to ``receive_reminder``."""
        self.runtime.system_store.register_reminder(self._qualified, name, period)

    def unregister_reminder(self, name: str) -> bool:
        """Remove a durable reminder."""
        return self.runtime.system_store.unregister_reminder(self._qualified, name)

    def register_timer(
        self, name: str, period: float, method: str, *args: Any
    ) -> None:
        """Run ``method`` through the mailbox every ``period`` seconds.

        Timers live and die with the activation (use reminders for timers
        that must survive deactivation).
        """
        if period <= 0:
            raise ValueError("timer period must be positive")
        self.cancel_timer(name)
        if self._timers is None:
            self._timers = {}
        self._timers[name] = _Timer(self, period, method, args)

    def _stop_timers(self) -> None:
        timers, self._timers = self._timers, None
        for timer in (timers or {}).values():
            timer.cancel()

    def cancel_timer(self, name: str) -> bool:
        """Cancel a registered timer; returns True if it existed."""
        if self._timers is None:
            return False
        timer = self._timers.pop(name, None)
        if timer is None:
            return False
        timer.cancel()
        return True


#: ``_Timer.state`` values.  A timer arms in a ready event (``_STARTING``),
#: waits on its sleep (``_ASLEEP``), ticks in a ready event after the sleep
#: fires (``_FIRED``), and stops for good when cancelled or once it finds
#: its activation closing (``_OVER``).
_STARTING, _ASLEEP, _FIRED, _OVER = range(4)


class _Timer:
    """One activation timer: the only done-callback of its current sleep.

    Registration queues one ready event that arms the first sleep, and each
    fire queues one ready event that enqueues the tick and arms the next
    sleep.  Those events sit where a looping task's first step and resumes
    would, so a timer costs the kernel the same events at the same
    ``(when, seq)`` as one (``tests/runtime/test_timer_equivalence.py``).
    A cancel leaves a pending sleep in the heap to fire into a no-op, and
    costs the one ready event a cancelled task's step would.
    """

    __slots__ = ("activation", "period", "method", "args", "state")

    def __init__(
        self, activation: Activation, period: float, method: str, args: tuple
    ) -> None:
        self.activation = activation
        self.period = period
        self.method = method
        self.args = args
        self.state = _STARTING
        activation.runtime.scheduler._call_soon(_Timer.step, self)

    def __call__(self, _sleep: Future[None]) -> None:
        # The sleep fired: tick in one ready event, unless cancelled.
        if self.state == _ASLEEP:
            self.state = _FIRED
            self.activation.runtime.scheduler._call_soon(_Timer.step, self)

    def cancel(self) -> None:
        # A pending sleep stays in the heap and fires into a no-op.
        state = self.state
        self.state = _OVER
        if state == _ASLEEP:
            self.activation.runtime.scheduler._call_soon(_Timer.step, self)

    def step(self) -> None:
        """Tick (after a fire) and arm the next sleep, unless closing."""
        state = self.state
        if state == _OVER:
            return
        activation = self.activation
        if activation.closing:
            self.state = _OVER
            return
        if state == _FIRED and not self.tick():
            self.state = _OVER
            return
        self.state = _ASLEEP
        activation.runtime.scheduler.sleep(self.period)._cb0 = self

    def tick(self) -> bool:
        """Enqueue one timer invocation; False if the activation refused
        it for good.  A tick that finds the mailbox full is dropped, as a
        message would be, and the timer keeps its period."""
        activation = self.activation
        runtime = activation.runtime
        invocation = Invocation(
            target=activation.key,
            method=self.method,
            args=tuple(snapshot(arg) for arg in self.args),
            caller_endpoint=activation.silo_id,
        )
        tracer = runtime.tracer
        if tracer.enabled:
            # Timer fires start fresh causal trees: nothing "called" them,
            # the clock did.
            invocation.span = tracer.begin(
                activation.key,
                "timer",
                activation.silo_id,
                runtime.scheduler.now,
                method=self.method,
            )
        try:
            activation.enqueue(invocation)
        except Exception as exc:  # noqa: BLE001 - full, or parked for good
            tracer.finish(
                invocation.span, runtime.scheduler.now, status="error", error=str(exc)
            )
            if isinstance(exc, MailboxOverflowError):
                runtime.stats.dropped_messages += 1
                return True
            return False
        return True


class _Turn:
    """One message's turn, up to its CPU charge (:meth:`begin`) and after
    (:meth:`finish`).  Steps return True once the turn is over, False while
    it waits on a kernel event whose callback resumes it.

    The turn is the only done-callback of what it waits on: its CPU timer,
    then whatever the rest of the turn (``coro``) awaits.  A suspended turn
    drives its coroutine itself, one ready event per resume, as a task
    would, but without a task, a task future or a bound method to hold
    while the request is in flight."""

    __slots__ = (
        "activation",
        "invocation",
        "serial",
        "started",
        "profile",
        "method",
        "options",
        "coro",
        "waiting",
        "cancelled",
    )

    def __init__(
        self, activation: Activation, invocation: Invocation, serial: bool
    ) -> None:
        self.activation = activation
        self.invocation = invocation
        self.serial = serial
        self.profile: Any = None
        # The rest of the turn once it started; None while its CPU charge
        # runs.  ``waiting`` / ``cancelled`` are set once it suspends.
        self.coro: Any = None
        inflight = activation._inflight
        if inflight is None:
            activation._inflight = self
        elif type(inflight) is _Turn:
            activation._inflight = {inflight: None, self: None}
        else:
            inflight[self] = None

    def launch(self) -> bool:
        try:
            return self.begin()
        except BaseException as exc:  # noqa: BLE001 - errors become replies
            return self.fail(exc)

    def begin(self) -> bool:
        activation = self.activation
        invocation = self.invocation
        runtime = activation.runtime
        scheduler = runtime.scheduler
        activation.last_used = self.started = started = scheduler.now
        span = invocation.span
        if span is not None and span.end is None:
            # Mailbox wait: from enqueue until this turn started.  For the
            # first message of a fresh activation this includes activation
            # start (CPU charge, state load, on_activate).
            span.queue += started - invocation.enqueued_at
            span.silo_id = activation.silo_id
        if invocation.deadline is not None and started >= invocation.deadline:
            # The caller's deadline already failed the reply (the deadline
            # timer sorts before this dequeue at equal timestamps); running
            # the method would only burn silo CPU on an abandoned request.
            return self.end()
        # Continuous profiling: fetch this turn's two accumulation rows once
        # (method-level and activation-level); every charge below adds plain
        # floats into them.  Disabled costs one attribute read.
        profiler = runtime.profiler
        if profiler.enabled:
            profiler.turns += 1
            self.profile = profiler.turn_records(
                activation.key, invocation.method, started - invocation.enqueued_at
            )
        method_name = invocation.method
        # System pseudo-methods all start with an underscore; application
        # methods essentially never do, so one character test stands in for
        # three string comparisons on the hot path.
        if method_name and method_name[0] == "_":
            if method_name == "__flush_state__":
                return self.run(self.flush_state())
            if method_name == "__txn_snapshot__":
                # Transactional undo logging: hand the coordinator an
                # isolated copy of this actor's transactional state.
                runtime._reply(
                    invocation,
                    snapshot(activation.instance.state),
                    None,
                    activation.silo_id,
                )
                return self.end()
            if method_name == "__txn_restore__":
                # Copy the undo log in: with copy_messages=False the argument
                # *is* the coordinator's saved snapshot, and a redelivered
                # restore must not find it edited by the restored actor.
                document = snapshot(invocation.args[0])
                activation.instance.state.clear()
                activation.instance.state.update(document)
                activation.instance.mark_dirty()
                runtime._reply(invocation, True, None, activation.silo_id)
                return self.end()
        entry = activation._methods.get(method_name)
        if entry is None:
            entry = runtime._resolve_method(activation.key.type_name, method_name)
        self.method, self.options, cost = entry
        if cost > 0:
            overhead = runtime.config.dispatch_overhead_cost
            if overhead > 0 and invocation.batch_cohort > 1:
                # The cost model splits every method charge into
                # per-message dispatch overhead plus application work;
                # members of a K-message envelope share one dispatch, so
                # each pays work + overhead/K (Reactors-style batched
                # execution).  Cohort 1 charges full cost, bit-identical
                # to the unbatched runtime.
                shared = overhead if overhead <= cost else cost
                cost = (cost - shared) + shared / invocation.batch_cohort
            timer = scheduler.at(activation.silo.cpu.book(cost, self.profile))
            timer._cb0 = self  # a fresh timer: its only callback
            if self.serial:
                activation._wait = timer
            return False
        return self.run(self.finish())

    def __call__(self, settled: Future[Any]) -> None:
        if self.coro is None:
            # The CPU charge is done: continue in one ready event, unless an
            # abort dropped the turn.
            if self.activation.broken is None:
                self.activation.runtime.scheduler._call_soon(_Turn.step, self)
        elif settled is self.waiting:
            # What the rest of the turn awaited settled (an abort detaches
            # it first): resume in one ready event.
            self.activation.runtime.scheduler._call_soon(_Turn.step, self)

    def step(self) -> None:
        """The turn's ready event: once its CPU charge is done it starts the
        rest of the turn, and once what that awaited settles it resumes it,
        in the event a task's resume would take."""
        activation = self.activation
        coro = self.coro
        starting = coro is None
        value = exc = None
        if starting:
            if activation.broken is not None:
                return
            span = self.invocation.span
            if span is not None and span.end is None:
                # Core-queueing plus service: the silo-contention signal.
                span.cpu += activation.runtime.scheduler.now - self.started
            self.coro = coro = self.finish()
            self.cancelled = False
        else:
            settled = self.waiting
            self.waiting = None
            if settled is not None:
                state = settled._state
                if state is _RESOLVED:
                    value = settled._value
                elif state is _CANCELLED:
                    exc = CancelledError(settled.name or "future cancelled")
                else:
                    exc = settled._exception
            if self.cancelled and exc is None:
                exc = CancelledError(coro.__name__)
        try:
            yielded = coro.send(value) if exc is None else coro.throw(exc)
        except StopIteration:
            over = self.end()
        except BaseException as error:  # noqa: BLE001 - errors become replies
            over = self.fail(error)
        else:
            if starting and self.serial:
                activation._wait = self
            over = self.park(yielded)
        if over and self.serial:
            activation._serve()

    def run(self, coro: Any) -> bool:
        """Start the rest of the turn in this event (no CPU charge to wait
        for); True if it is over before it has to wait."""
        self.coro = coro
        self.cancelled = False
        try:
            yielded = coro.send(None)
        except StopIteration:
            return self.end()
        except BaseException as exc:  # noqa: BLE001 - errors become replies
            return self.fail(exc)
        if self.serial:
            self.activation._wait = self
        return self.park(yielded)

    def park(self, yielded: Any) -> bool:
        """Wait on the future the rest of the turn yielded, as its only
        callback; anything else is thrown back in, as a task would.  True
        if that ended the turn."""
        while type(yielded) is not Future and not isinstance(yielded, Future):
            error = TypeError(
                f"turn {self.coro.__name__!r} awaited a non-kernel awaitable: "
                f"{yielded!r}"
            )
            try:
                yielded = self.coro.throw(error)
            except StopIteration:
                return self.end()
            except BaseException as exc:  # noqa: BLE001 - errors become replies
                return self.fail(exc)
        self.waiting = yielded
        # A yielded future is normally pending with no callback yet.
        if (
            yielded._state is _PENDING
            and yielded._cb0 is None
            and yielded._callbacks is None
        ):
            yielded._cb0 = self
        else:
            yielded.add_done_callback(self)
        return False

    def cancel(self) -> None:
        """Abort: CancelledError at the await, delivered in one ready event,
        or by the resume already queued if what it awaited has settled."""
        self.cancelled = True
        waiting = self.waiting
        if waiting is not None and waiting._state is _PENDING:
            self.waiting = None  # detached: its settling resumes nothing
            self.activation.runtime.scheduler._call_soon(_Turn.step, self)

    async def finish(self) -> None:
        activation, invocation, method = self.activation, self.invocation, self.method
        span = invocation.span
        error: BaseException | None = None
        result: Any = None
        if method is None:
            error = ActorMethodError(
                f"{activation.actor_class.__name__} has no method {invocation.method!r}"
            )
        else:
            if not activation.instance.reentrant:
                # Sub-calls made by this turn carry the extended chain, so
                # cycles back into this (busy) actor are detectable.
                chain = invocation.chain
                activation.active_chain = (
                    chain + activation._self_chain if chain else activation._self_chain
                )
            activation.active_span = span
            try:
                result = await method(
                    activation.instance, *invocation.args, **invocation.kwargs
                )
            except GeneratorExit:
                raise  # activation teardown, not an application error
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                error = exc
            finally:
                activation.active_chain = ()
                activation.active_span = None
            if activation.broken is not None:
                return  # aborted mid-turn: the crash already failed the reply
        activation.messages_handled += 1
        activation.last_used = activation.runtime.scheduler.now
        if (
            error is None
            and activation.actor_class.durable
            and activation.actor_class.write_policy is WritePolicy.WRITE_THROUGH
            and not self.options["read_only"]
        ):
            activation.instance.mark_dirty()
            try:
                await activation._flush_if_dirty(span, self.profile)
            except Exception as exc:  # noqa: BLE001 - surface to the caller
                # Write-through means "durable when acknowledged": if the
                # flush fails (storage throttling, conditional conflict),
                # the caller must see the failure, not a false ack.
                error = exc
        if self.profile is not None and error is not None:
            for record in self.profile:
                record.errors += 1
        activation.runtime._reply(invocation, result, error, activation.silo_id)

    async def flush_state(self) -> None:
        activation = self.activation
        try:
            await activation._flush_if_dirty(self.invocation.span, self.profile)
            error = None
        except Exception as exc:  # noqa: BLE001 - storage failure
            # A timer-driven flush failed (e.g. storage throttling): record
            # it; the state stays dirty and the next interval retries.
            error = exc
        if activation.broken is not None:
            return  # aborted mid-flush: the crash already failed the reply
        activation.runtime._reply(self.invocation, None, error, activation.silo_id)

    def fail(self, exc: BaseException) -> bool:
        """Whatever a turn raises becomes its reply."""
        activation = self.activation
        activation.runtime._reply(self.invocation, None, exc, activation.silo_id)
        return self.end()

    def end(self) -> bool:
        activation = self.activation
        inflight = activation._inflight
        if inflight is self:
            activation._inflight = None
        else:
            del inflight[self]
            if not inflight:
                activation._inflight = None
        if not activation._inflight and activation._wait is _DRAIN:
            # The last interleaved turn before close: close in a ready event.
            activation._wait = None
            activation.runtime.scheduler._call_soon(Activation._close_now, activation)
        return True
