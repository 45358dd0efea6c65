"""What an idle activation keeps resident, checked by structure.

A platform with one actor per sensor keeps hundreds of thousands of idle
activations, so each holds only what it uses.  These guards walk the object
graph an activation reaches on its own (everything except what the runtime
shares across activations) and check for the allocations that used to make
an idle actor cost 4 KB: queue machinery, empty deques, timer tasks and
bound-method caches.  They test structure and GC-tracked object counts, not
byte counts, so they hold on every supported Python version.
"""

import gc
import types
from collections import deque

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler, Task
from repro.kernel.sync import Event, Queue
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.key import ActorKey
from repro.shm import ShmPlatform, channel_id_for, sensor_id_for
from repro.storage import InMemoryKVStore

FORBIDDEN = (deque, Queue, Task, types.CoroutineType, types.MethodType)


class Plain(Actor):
    async def ping(self):
        return "pong"

    async def nap(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)

    async def every(self, period):
        self.context.register_timer("t", period, "ping")


class Flushed(Actor):
    durable = True
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 1.0

    async def ping(self):
        return "pong"


def build():
    sched = Scheduler()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.001, activation_cost=0.001),
        network=Network(sched, lan=ConstantLatency(0.0005)),
    )
    runtime.add_silo("s1", cores=2)
    runtime.register_actors([Plain, Flushed])
    return sched, runtime


def call(sched, reply):
    async def wait():
        return await reply

    return sched.run_until_complete(wait())


def activation_of(runtime, type_name, actor_id):
    (activation,) = [
        activation
        for activation in runtime.silo("s1").activations()
        if activation.key.qualified() == f"{type_name}/{actor_id}"
    ]
    return activation


def own_objects(activation):
    """Every object ``activation`` reaches that is not shared: the walk
    stops at the runtime and what it holds (the type's method table too),
    the silo, classes, functions and modules."""
    runtime = activation.runtime
    shared = {id(runtime), id(activation.silo), id(activation._methods)}
    shared |= {id(value) for value in vars(runtime).values()}
    opaque = (type, types.ModuleType, types.FunctionType)
    seen = {id(activation)}
    found = [activation]
    frontier = [activation]
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) in seen or id(referent) in shared:
                continue
            if isinstance(referent, opaque):
                continue
            seen.add(id(referent))
            found.append(referent)
            frontier.append(referent)
    return found


def forbidden(activation):
    own = own_objects(activation)
    return sorted(type(obj).__name__ for obj in own if isinstance(obj, FORBIDDEN))


def count(kind):
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def tracked(activation):
    return [obj for obj in own_objects(activation) if gc.is_tracked(obj)]


def test_idle_activation_reaches_no_queue_deque_task_or_bound_method():
    sched, runtime = build()
    call(sched, runtime.ref("Plain", "p").ping())
    activation = activation_of(runtime, "Plain", "p")
    assert not activation.busy
    assert forbidden(activation) == []


def test_mailbox_deque_exists_only_while_messages_queue():
    sched, runtime = build()
    ref = runtime.ref("Plain", "p")
    call(sched, ref.ping())
    activation = activation_of(runtime, "Plain", "p")
    assert activation.mailbox is None

    async def crowd():
        nap = ref.nap(0.1)
        pings = [ref.ping(), ref.ping()]
        await sched.sleep(0.05)
        # The nap holds the turn: the two pings wait in a deque.
        queued = activation.mailbox
        assert type(queued) is deque and len(queued) == 2
        await nap
        for ping in pings:
            await ping

    sched.run_until_complete(crowd())
    assert activation.mailbox is None
    assert forbidden(activation) == []


def test_registered_timer_adds_no_task_or_coroutine():
    sched, runtime = build()
    ref = runtime.ref("Plain", "p")
    call(sched, ref.ping())
    gc.collect()
    tasks, coroutines = count(Task), count(types.CoroutineType)

    async def arm():
        await ref.every(0.25)
        await sched.sleep(1.0)  # four ticks through the mailbox

    sched.run_until_complete(arm())
    gc.collect()
    assert (count(Task), count(types.CoroutineType)) == (tasks, coroutines)
    activation = activation_of(runtime, "Plain", "p")
    assert forbidden(activation) == []


def test_interval_flushed_activation_holds_no_timer_task():
    sched, runtime = build()
    call(sched, runtime.ref("Flushed", "f").ping())
    sched.run_for(2.5)  # two interval flushes
    assert forbidden(activation_of(runtime, "Flushed", "f")) == []


def test_event_allocates_its_waiter_deque_on_first_wait():
    sched = Scheduler()
    event = Event(sched)
    assert not any(isinstance(obj, deque) for obj in gc.get_referents(event))
    waiter = event.wait()
    assert any(isinstance(obj, deque) for obj in gc.get_referents(event))
    event.set()
    assert waiter.done()


def test_idle_sensor_and_channel_hold_only_what_they_use():
    sched = Scheduler()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.0, activation_cost=0.0),
        network=Network(sched, lan=ConstantLatency(0.0)),
        grain_storage=InMemoryKVStore(),
    )
    runtime.add_silo("s1", cores=2)
    platform = ShmPlatform(AodbDatabase(runtime))
    sched.run_until_complete(platform.provision(total_sensors=1))
    sensor_id = sensor_id_for("org-0", 0)
    sensor = activation_of(runtime, "Sensor", sensor_id)
    channel = activation_of(
        runtime, "PhysicalSensorChannel", channel_id_for(sensor_id, 0)
    )
    # One object of slack over the 8 and 11 these hold.
    assert len(tracked(sensor)) <= 9
    assert len(tracked(channel)) <= 12
    for activation in (sensor, channel):
        assert not any(isinstance(obj, Event) for obj in own_objects(activation))
    window = channel.instance.window
    assert not [
        obj for obj in gc.get_referents(window) if type(obj) is list and not obj
    ]


def test_a_waiter_registered_before_the_close_wakes_on_it():
    sched, runtime = build()
    call(sched, runtime.ref("Plain", "p").ping())
    activation = activation_of(runtime, "Plain", "p")
    waiter = activation.closed.wait()
    assert not waiter.done()
    sched.run_until_complete(runtime.deactivate("Plain", "p"))
    assert waiter.done()
    assert activation.closed.wait().done()


def test_an_unwatched_close_sets_a_flag_that_later_readers_see():
    sched, runtime = build()
    call(sched, runtime.ref("Plain", "p").ping())
    activation = activation_of(runtime, "Plain", "p")
    runtime.crash_silo("s1")
    assert not any(isinstance(obj, Event) for obj in own_objects(activation))
    closed = activation.closed
    assert closed.is_set()
    assert closed.wait().done()


def test_a_migration_successor_waits_for_its_predecessor_close():
    log = []

    class Mover(Actor):
        async def on_activate(self):
            log.append(("activate", self.context.silo_id, self.context.now))

        async def on_deactivate(self):
            await self.context.runtime.scheduler.sleep(0.5)
            log.append(("closed", self.context.silo_id, self.context.now))

        async def where(self):
            return self.context.silo_id

    sched, runtime = build()
    runtime.add_silo("s2", cores=2)
    runtime.register_actors([Mover])
    ref = runtime.ref("Mover", "m")

    async def move():
        assert await ref.where() == "s1"
        migrating = sched.spawn(runtime.migrate(ActorKey("Mover", "m"), "s2"))
        assert await ref.where() == "s2"
        assert await migrating

    sched.run_until_complete(move())
    (_, _, activated), (_, _, closed), (_, silo, reactivated) = log
    assert silo == "s2"
    assert activated < closed <= reactivated
