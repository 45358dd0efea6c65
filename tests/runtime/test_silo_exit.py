"""Every way a silo leaves the cluster, pinned event for event.

Each scenario runs the same 2-silo deployment (redo journal on, cluster
services started, one write-through turn parked on a slow storage put) and
takes silo-1 out by one exit path.  The recorded values are the schedule's
fingerprint: kernel event count and final clock, every runtime counter, the
membership epoch, the probes still labelled with the silo, its directory
entries, and the order in which its heartbeat, its redo pump, the cluster
services and the parked call finished.  A refactor of the teardown code
must reproduce them exactly.
"""

from dataclasses import asdict

import pytest

from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network, PartitionInjector
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.runtime import SYSTEM_STORE_ENDPOINT
from repro.storage import SystemStore
from repro.storage.dynamo import ProvisionedKVStore


class Lazy(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE
    placement = "pinned"

    async def set(self, value):
        self.state["value"] = value
        self.mark_dirty()
        return value


class Through(Actor):
    durable = True
    write_policy = WritePolicy.WRITE_THROUGH
    placement = "pinned"

    async def set(self, value):
        self.state["value"] = value
        self.mark_dirty()
        return value


def build():
    sched = Scheduler()
    # Remember every task by name so the test can watch the order in which
    # silo and cluster services finish.
    tasks = {}
    spawn = sched.spawn

    def spawn_named(coro, name=""):
        task = spawn(coro, name=name)
        tasks.setdefault(name, task)
        return task

    sched.spawn = spawn_named
    config = RuntimeConfig(
        default_method_cost=0.0001,
        activation_cost=0.0002,
        redo_lag=0.1,
        seed=7,
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        grain_storage=ProvisionedKVStore(sched, latency=ConstantLatency(0.05)),
        network=Network(sched, lan=ConstantLatency(0.001)),
        system_store=SystemStore(sched, lease_seconds=1.0),
    )
    runtime.register_actors([Lazy, Through])
    runtime.add_silo("silo-1", cores=2)
    runtime.add_silo("silo-2", cores=2)
    runtime.pinned_placement.pin_prefix("Lazy/a", "silo-1")
    runtime.pinned_placement.pin_prefix("Lazy/b", "silo-2")
    runtime.pinned_placement.pin_prefix("Through/", "silo-1")
    runtime.start()
    return sched, runtime, tasks


async def _shutdown(sched, runtime):
    await runtime.shutdown_silo("silo-1")


async def _crash_detected(sched, runtime):
    runtime.crash_silo("silo-1", detected=True)


async def _crash_silent_then_evict(sched, runtime):
    runtime.crash_silo("silo-1", detected=False)
    # Past the lease (1 s) plus the grace (5 s default) but before the
    # detector's own pass would get there.
    await sched.at(6.6)
    assert runtime.evict_dead_silos() == ["silo-1"]


async def _zombie_eviction(sched, runtime):
    runtime.network.inject_partitions(
        PartitionInjector([([{"silo-1"}, {SYSTEM_STORE_ENDPOINT}], 0.0, 100.0)])
    )
    await sched.at(6.6)
    assert runtime.evict_dead_silos() == ["silo-1"]


async def _healed_zombie_eviction(sched, runtime):
    # Quarantine off, and the partition heals just before the detector's
    # pass: the silo is reachable again, so eviction tears it down fully,
    # live activations and all.
    runtime.config.quarantine_on_lease_loss = False
    runtime.network.inject_partitions(
        PartitionInjector([([{"silo-1"}, {SYSTEM_STORE_ENDPOINT}], 0.0, 6.55)])
    )
    await sched.at(6.6)
    assert runtime.evict_dead_silos() == ["silo-1"]


async def _rejoin(sched, runtime):
    await runtime.quarantine_silo("silo-1")
    assert runtime.rejoin_silo("silo-1")


async def _drain(sched, runtime):
    await runtime.drain_silo("silo-1")


async def _stop(sched, runtime):
    await runtime.stop()


WATCHED = (
    "heartbeat:silo-1",
    "redo-pump:silo-1",
    "idle-collector",
    "reminder-pump",
    "failure-detector",
    "parked-write",
)


def run(exit_path):
    sched, runtime, tasks = build()
    finished = []

    def watch(name):
        tasks[name].future.add_done_callback(lambda _: finished.append(name))

    async def write():
        return await runtime.ref("Through", "t0").set("parked")

    async def main():
        for name in ("a1", "a2", "a3", "b1"):
            await runtime.ref("Lazy", name).set(name)
        await runtime.ref("Through", "t0").set("first")
        await sched.sleep(0.25)  # let the redo pumps journal the dirty state
        parked = sched.spawn(write(), name="parked-write")
        for name in WATCHED:
            watch(name)
        await sched.sleep(0.01)  # the turn now waits on its storage put
        await exit_path(sched, runtime)
        await sched.at(8.0)
        if not parked.done():
            return "pending"
        error = parked.future.exception()
        return type(error).__name__ if error is not None else parked.result()

    parked = sched.run_until_complete(main())
    return {
        "parked": parked,
        "finished": finished,
        "events": sched.events_processed,
        "now": sched.now,
        "stats": {k: v for k, v in asdict(runtime.stats).items() if v},
        "epoch": runtime.system_store.epoch,
        "probes": sorted(runtime.metrics.snapshot(silo="silo-1")),
        "entries": sorted(
            key.qualified() for key in runtime.directory.entries_on("silo-1")
        ),
    }


# The silo's own gauges outlive it only where it stays in the process
# (zombie eviction, rejoin); the placement counter is cluster history.
PROBES_GONE = ["placement.decisions{silo=silo-1,strategy=pinned}"]
PROBES_LIVE = PROBES_GONE + [
    "silo.activations{silo=silo-1}",
    "silo.cpu_utilization{silo=silo-1}",
    "silo.mailbox_depth{silo=silo-1}",
]

# Recorded on the teardown code before it was factored into shared helpers.
# Counters not listed are zero.
EXPECTED = {
    "shutdown": {
        "parked": "parked",
        "finished": ["parked-write", "heartbeat:silo-1", "redo-pump:silo-1"],
        "events": 312,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 5,
            "activations_collected": 4,
        },
    },
    "crash_detected": {
        "parked": "SiloUnavailableError",
        "finished": ["parked-write", "heartbeat:silo-1", "redo-pump:silo-1"],
        "events": 294,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 5,
            "errors": 1,
            "dropped_replies": 1,
            "activations_created": 5,
            "activations_crashed": 4,
            "last_error": "Through/t0.set(): finish",
        },
    },
    "crash_silent_then_evict": {
        "parked": "SiloUnavailableError",
        "finished": ["parked-write", "heartbeat:silo-1", "redo-pump:silo-1"],
        "events": 315,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 5,
            "errors": 1,
            "activations_created": 9,
            "activations_crashed": 4,
            "silos_suspected": 1,
            "silos_evicted": 1,
            "activations_replaced": 4,
            "last_error": "Through/t0.set(): finish",
        },
    },
    "zombie_eviction": {
        "parked": "parked",
        "finished": ["parked-write"],
        "events": 516,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_LIVE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 9,
            "silos_suspected": 1,
            "silos_evicted": 1,
            "activations_replaced": 4,
            "silos_quarantined": 1,
        },
    },
    "healed_zombie_eviction": {
        "parked": "parked",
        "finished": ["parked-write", "heartbeat:silo-1", "redo-pump:silo-1"],
        "events": 480,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 9,
            "activations_crashed": 4,
            "silos_suspected": 1,
            "silos_evicted": 1,
            "activations_replaced": 4,
        },
    },
    "rejoin": {
        "parked": "SiloUnavailableError",
        "finished": ["parked-write"],
        "events": 501,
        "now": 8.0,
        "epoch": 4,
        "probes": PROBES_LIVE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 5,
            "errors": 1,
            "activations_created": 5,
            "silos_quarantined": 1,
            "silos_rejoined": 2,
            "last_error": "Through/t0.set(): finish",
        },
    },
    "drain": {
        "parked": "parked",
        "finished": ["parked-write", "heartbeat:silo-1", "redo-pump:silo-1"],
        "events": 336,
        "now": 8.0,
        "epoch": 3,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 9,
            "migrations": 4,
            "silos_drained": 1,
        },
    },
    "stop": {
        "parked": "parked",
        "finished": [
            "idle-collector",
            "reminder-pump",
            "failure-detector",
            "parked-write",
            "heartbeat:silo-1",
            "redo-pump:silo-1",
        ],
        "events": 126,
        "now": 8.0,
        "epoch": 4,
        "probes": PROBES_GONE,
        "entries": [],
        "stats": {
            "asks": 6,
            "replies": 6,
            "activations_created": 5,
            "activations_collected": 5,
        },
    },
}


@pytest.mark.parametrize(
    "exit_path",
    [
        _shutdown,
        _crash_detected,
        _crash_silent_then_evict,
        _zombie_eviction,
        _healed_zombie_eviction,
        _rejoin,
        _drain,
        _stop,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_exit_path_is_pinned(exit_path):
    assert run(exit_path) == EXPECTED[exit_path.__name__.lstrip("_")]
