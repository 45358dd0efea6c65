"""The message path: one timer event per hop, no task per message.

A send resolves its activation and plans its envelope in the sender's own
event; each hop (request, reply) then costs exactly one timer event when
its wire delay is positive and none at zero delay.  The guard tests pin the
event count of one warm ask; the rest pin the semantics the rewrite must
keep (re-routing past a closing activation, deadline-settled replies, lost
envelopes, per-path FIFO, a reply copied at return time) and the reply to a
caller that left the network.
"""

import itertools
import random

import pytest

from repro.errors import DeadlineExceededError, SiloUnavailableError
from repro.kernel import Scheduler, Task
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.obs.trace import Tracer
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig

COST = 0.001


class Echo(Actor):
    async def echo(self, value):
        return value


class Recorder(Actor):
    async def on_activate(self):
        self.seen = []

    async def note(self, value):
        self.seen.append(value)

    async def log(self):
        return list(self.seen)


def build_runtime(sched, lan, *, cost=0.0, batching=False, tracer=None, silos=1):
    config = RuntimeConfig(
        default_method_cost=cost,
        activation_cost=0.0,
        batch_max_delay=0.002 if batching else None,
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(lan)),
        tracer=tracer,
    )
    for index in range(silos):
        runtime.add_silo(f"silo-{index}", cores=2)
    return runtime


# -- guard: events and spawns per ask ------------------------------------------


def one_warm_ask(monkeypatch, lan):
    """Kernel events and task spawns one ask costs once its activation exists."""
    sched = Scheduler()
    runtime = build_runtime(sched, lan, cost=COST)
    runtime.register_actor(Echo)
    ref = runtime.ref("Echo", "e")
    spawned = []
    spawn = sched.spawn
    monkeypatch.setattr(
        sched, "spawn", lambda coro, name="": spawned.append(name) or spawn(coro, name)
    )

    async def idle():
        return None

    async def ask():
        return await ref.echo(1)

    def run(coro_fn):
        events, spawns = sched.events_processed, len(spawned)
        sched.run_until_complete(coro_fn())
        return sched.events_processed - events, len(spawned) - spawns

    run(ask)  # warm: the activation exists from here on
    # run_until_complete's own task: one spawn and its first step.
    base_events, base_spawns = run(idle)
    events, spawns = run(ask)
    return events - base_events, spawns - base_spawns


def test_remote_ask_costs_one_event_per_hop(monkeypatch):
    # Request lands (timer), the mailbox hands it over, the CPU charge
    # completes (timer) and the turn resumes, the reply lands (timer), the
    # caller resumes.  Spawning a deliver task and a reply task per ask used to
    # add a first step and a post-sleep resume to each hop: 10 events.
    assert one_warm_ask(monkeypatch, lan=0.0005) == (6, 0)


def test_zero_latency_ask_lands_inline(monkeypatch):
    # Both hops land inside the event that sent them: mailbox handover, CPU
    # timer, turn resume, caller resume (was 6 with the two spawned tasks).
    assert one_warm_ask(monkeypatch, lan=0.0) == (4, 0)


# -- guard: no coroutine resumes on the callee's side ----------------------------


class Relay(Actor):
    async def forward(self, value):
        return await self.context.actor("Echo", "e").echo(value)


def callee_tasks(monkeypatch, target, method):
    """Task steps outside the caller's own task, and the tasks spawned and
    adopted, during one warm ask of ``method`` on actor ``target``."""
    sched = Scheduler()
    runtime = build_runtime(sched, 0.0005, cost=COST)
    runtime.register_actors([Echo, Relay])
    ref = runtime.ref(*target.split("/"))
    steps, spawned, adopted = [], [], []
    step = Task._step
    monkeypatch.setattr(
        Task, "_step", lambda task: steps.append(task.name) or step(task)
    )
    spawn = sched.spawn
    monkeypatch.setattr(
        sched, "spawn", lambda coro, name="": spawned.append(name) or spawn(coro, name)
    )
    adopt = getattr(sched, "adopt", None)
    monkeypatch.setattr(
        sched,
        "adopt",
        lambda coro, yielded: adopted.append(coro.__name__) or adopt(coro, yielded),
        raising=False,
    )

    async def ask():
        return await ref.ask(method, 1)

    sched.run_until_complete(ask())  # warm: the activations exist
    for log in (steps, spawned, adopted):
        log.clear()
    sched.run_until_complete(ask())
    callee_steps = [name for name in steps if name != "main"]
    return callee_steps, [name for name in spawned if name != "main"], adopted


def test_synchronous_turn_resumes_no_coroutine(monkeypatch):
    # The mailbox handover and the resume after the CPU charge are plain
    # callbacks; the method runs to completion inside the resume event.
    # A per-activation pump task stepped twice here.
    assert callee_tasks(monkeypatch, "Echo/e", "echo") == ([], [], [])


def test_suspending_turn_adopts_exactly_one_task(monkeypatch):
    # forward() suspends on its sub-ask: the kernel adopts the rest of the
    # turn once, and that task's one resume finishes it.
    steps, spawned, adopted = callee_tasks(monkeypatch, "Relay/r", "forward")
    assert (len(steps), spawned, adopted) == (1, [], ["finish"])


# -- semantics the rewrite keeps --------------------------------------------------


class Incarnation(Actor):
    """Numbers its activations; deactivation takes 10 ms."""

    numbers = itertools.count(1)

    async def on_activate(self):
        self.number = next(type(self).numbers)

    async def on_deactivate(self):
        await self.context.runtime.scheduler.sleep(0.01)

    async def whoami(self):
        return self.number


def test_closing_activation_reroutes_in_flight_message_to_successor():
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.001)
    runtime.register_actor(Incarnation)
    Incarnation.numbers = itertools.count(1)

    async def main():
        ref = runtime.ref("Incarnation", "i")
        first = await ref.whoami()
        in_flight = ref.whoami()  # on the wire for 1 ms
        sched.spawn(runtime.deactivate("Incarnation", "i"))
        closing_since = sched.now
        second = await in_flight
        return first, second, sched.now - closing_since

    first, second, elapsed = sched.run_until_complete(main())
    # It reached the closing activation, waited for its barrier (10 ms) and
    # ran on the successor, not on the incarnation that was shutting down.
    assert (first, second) == (1, 2)
    assert elapsed >= 0.01
    assert runtime.stats.activations_created == 2
    assert runtime.stats.errors == 0


class Counted(Actor):
    calls = 0

    async def on_deactivate(self):
        await self.context.runtime.scheduler.sleep(0.05)

    async def work(self):
        type(self).calls += 1
        return "done"


def test_deadline_settled_before_reroute_is_never_executed():
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.001)
    runtime.register_actor(Counted)
    Counted.calls = 0

    async def main():
        ref = runtime.ref("Counted", "c")
        await ref.work()
        doomed = ref.ask("work", deadline=0.01)
        sched.spawn(runtime.deactivate("Counted", "c"))
        with pytest.raises(DeadlineExceededError):
            await doomed
        await sched.sleep(0.1)  # well past the 50 ms barrier

    sched.run_until_complete(main())
    # The message waited on the closing activation; by the time it could
    # re-route, its caller had given up, so no successor ran it.
    assert Counted.calls == 1
    assert runtime.stats.activations_created == 1
    assert runtime.stats.replies == 1
    assert runtime.stats.deadlines_exceeded == 1


def test_reply_landing_after_the_deadline_settles_nothing_twice():
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.01)
    runtime.register_actor(Counted)
    Counted.calls = 0

    async def main():
        ref = runtime.ref("Counted", "c")
        # Executes at 10 ms, the deadline fires at 15 ms, the reply lands
        # at 20 ms onto an already-settled future.
        with pytest.raises(DeadlineExceededError):
            await ref.ask("work", deadline=0.015)
        await sched.sleep(0.1)

    sched.run_until_complete(main())
    assert Counted.calls == 1
    assert runtime.stats.replies == 0
    assert runtime.stats.deadlines_exceeded == 1


@pytest.mark.parametrize("batching", [False, True])
def test_lost_envelope_schedules_nothing(batching):
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.001, batching=batching)
    runtime.register_actor(Echo)
    ref = runtime.ref("Echo", "e")

    async def warm():
        return await ref.echo(0)

    assert sched.run_until_complete(warm()) == 0
    sched.run_for(0.1)  # let any batch window close
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(0), loss_rate=1.0)
    )
    before = sched.pending_events
    lost = ref.echo(1)
    if not batching:
        # Routed and dropped inside the send: nothing was ever queued.
        assert sched.pending_events == before
    sched.run_for(1.0)
    assert not lost.done()
    assert sched.pending_events == before
    assert runtime.network.stats.lost_messages == 1


class Box(Actor):
    placement = "pinned"

    async def bump(self):
        self.state.setdefault("items", []).append("late")

    async def read(self):
        return self.state


def test_reply_is_copied_when_the_method_returns_not_when_it_lands():
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.010, silos=2)
    runtime.register_actor(Box)
    runtime.pinned_placement.pin(ActorKey("Box", "b"), "silo-0")
    local = runtime.ref("Box", "b", caller_endpoint="silo-0")
    remote = runtime.ref("Box", "b", caller_endpoint="silo-1")

    async def main():
        await local.bump()
        start = sched.now
        read = remote.read()  # runs at +10 ms, lands back at +20 ms
        await sched.sleep(0.012)
        await local.bump()  # a later turn, while the reply is on the wire
        result = await read
        return result, sched.now - start

    result, elapsed = sched.run_until_complete(main())
    assert elapsed == pytest.approx(0.020)
    assert result == {"items": ["late"]}


@pytest.mark.parametrize("batching", [False, True])
@pytest.mark.parametrize("lan", [0.0, 0.001])
def test_per_sender_fifo(lan, batching):
    sched = Scheduler()
    runtime = build_runtime(sched, lan=lan, batching=batching, cost=COST)
    runtime.register_actor(Recorder)

    async def main():
        ref = runtime.ref("Recorder", "r")
        # Bursts from one sender, the first of which activates the target,
        # with gaps that split them across envelopes when batching.
        for start in range(0, 12, 4):
            for value in range(start, start + 4):
                ref.tell("note", value)
            await sched.sleep(0.0015)
        ref.ask("note", 12)
        return await ref.log()

    assert sched.run_until_complete(main()) == list(range(13))


# -- a reply to a caller that left the network ---------------------------------


class Caller(Actor):
    placement = "pinned"

    async def call(self):
        return await self.context.actor("Slow", "b").work()


class Slow(Actor):
    placement = "pinned"

    async def work(self):
        await self.context.runtime.scheduler.sleep(0.1)
        return "done"

    async def ping(self):
        return "pong"


def test_reply_to_an_evicted_caller_is_dropped_and_callee_keeps_serving():
    sched = Scheduler()
    runtime = build_runtime(sched, lan=0.001, tracer=Tracer(), silos=2)
    runtime.register_actors([Caller, Slow])
    runtime.pinned_placement.pin(ActorKey("Caller", "a"), "silo-0")
    runtime.pinned_placement.pin(ActorKey("Slow", "b"), "silo-1")

    async def main():
        call = runtime.ref("Caller", "a").ask("call", deadline=0.5)
        await sched.sleep(0.05)  # silo-1 is inside work() now
        runtime.crash_silo("silo-0")  # evicted: its endpoint leaves the net
        with pytest.raises(SiloUnavailableError):
            await call  # the crash failed the turn that was waiting on b
        await sched.sleep(0.1)  # work() finishes and replies to silo-0
        return await runtime.ref("Slow", "b").ping()

    assert sched.run_until_complete(main()) == "pong"
    # b's reply to silo-0.  a's own turn, abandoned by the crash, sends none.
    assert runtime.stats.dropped_replies == 1
    (work,) = [span for span in runtime.tracer.spans() if span.name == "Slow/b.work"]
    assert work.status == "error"
    assert "reply dropped" in work.error
