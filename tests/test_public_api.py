"""The advertised top-level API surface works as documented."""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro.runtime import RuntimeConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Every RuntimeConfig field is a decision some deployment makes
# differently; a new knob has to argue its way into this set.
CONFIG_FIELDS = {
    "default_method_cost",
    "method_costs",
    "activation_cost",
    "idle_timeout",
    "collection_interval",
    "copy_messages",
    "placement_fallback",
    "reminder_tick",
    "batch_max_delay",
    "dispatch_overhead_cost",
    "group_commit_max_delay",
    "default_call_deadline",
    "default_retry_policy",
    "failure_detection_interval",
    "suspicion_grace",
    "redo_lag",
    "quarantine_on_lease_loss",
    "seed",
}


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_readme_quickstart_runs():
    from repro import Actor, AodbDatabase, AodbRuntime, Scheduler

    class Greeter(Actor):
        async def greet(self, name):
            return f"hello {name}"

    scheduler = Scheduler()
    runtime = AodbRuntime(scheduler)
    runtime.add_silo("silo-1", cores=2)
    db = AodbDatabase(runtime)
    db.register_actor(Greeter)

    async def main():
        return await db.ref("Greeter", "g").greet("world")

    assert scheduler.run_until_complete(main()) == "hello world"


def test_partition_tolerance_surface():
    """The PR-6 partition-tolerance API is part of the advertised surface."""
    from repro import FencedWriteError, QuarantinedSiloError, RuntimeConfig
    from repro.errors import SiloUnavailableError, StorageError

    assert issubclass(FencedWriteError, StorageError)
    assert issubclass(QuarantinedSiloError, SiloUnavailableError)
    config = RuntimeConfig()
    assert config.redo_lag == 0.0
    assert config.quarantine_on_lease_loss is True
    config.validate()
    config.redo_lag = -1.0
    try:
        config.validate()
    except ValueError:
        pass
    else:  # pragma: no cover - guard
        raise AssertionError("negative redo_lag must be rejected")


def test_runtime_config_knob_budget():
    assert {f.name for f in dataclasses.fields(RuntimeConfig)} == CONFIG_FIELDS
    assert len(CONFIG_FIELDS) == 18


@pytest.mark.parametrize(
    "name, zero_is_a_window",
    [
        ("batch_max_delay", True),
        # 0.0 is "on": one scheduler round trip, unlike None.
        ("group_commit_max_delay", True),
        ("failure_detection_interval", False),
    ],
)
def test_optional_windows_validate(name, zero_is_a_window):
    # None switches the mechanism off; a number is its window.
    RuntimeConfig(**{name: None}).validate()
    RuntimeConfig(**{name: 0.5}).validate()
    with pytest.raises(ValueError):
        RuntimeConfig(**{name: -1.0}).validate()
    if zero_is_a_window:
        RuntimeConfig(**{name: 0.0}).validate()
    else:
        with pytest.raises(ValueError):
            RuntimeConfig(**{name: 0.0}).validate()


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_docs_name_only_real_config_fields(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    named = set(re.findall(r"RuntimeConfig\.([A-Za-z_]\w*)", text))
    assert named <= CONFIG_FIELDS | {"validate"}, sorted(named - CONFIG_FIELDS)


def test_subpackages_import():
    import repro.aodb
    import repro.bench
    import repro.cattle
    import repro.ingest
    import repro.kernel
    import repro.net
    import repro.runtime
    import repro.shm
    import repro.storage
    import repro.warehouse

    assert repro.bench.M5_LARGE.cores == 2


# What an application may reach on a runtime; a split of the runtime into
# modules must keep every name, and a new public name has to be argued in.
RUNTIME_SURFACE = {
    "acquire_fence", "actor_type", "add_silo", "collect_idle_activations",
    "config", "cpu_imbalance", "crash_silo", "database", "deactivate",
    "describe_cluster", "directory", "drain_silo", "enable_redo_journal",
    "evict_dead_silos", "grain_storage", "group_commit", "metrics", "migrate",
    "network", "pinned_placement", "profiler", "pump_reminders",
    "quarantine_silo", "redo_journal", "ref", "register_actor",
    "register_actors", "rejoin_silo", "rng", "scheduler", "send",
    "send_one_way", "send_resilient", "shutdown_silo", "silo", "silos",
    "start", "stats", "stop", "strategies", "system_store",
    "total_activations", "tracer", "tsblock_stats",
}


def test_runtime_and_actor_context_surface():
    from repro import Actor, AodbRuntime, Scheduler

    runtime = AodbRuntime(Scheduler())
    public = {name for name in dir(runtime) if not name.startswith("_")}
    assert public == RUNTIME_SURFACE

    class Peer(Actor):
        async def where(self):
            return self.context.silo_id

        async def tick(self):
            pass

    class Probe(Actor):
        async def use_everything(self):
            context = self.context
            context.register_timer("t", 1.0, "tick")
            context.register_reminder("r", 60.0)
            return (
                context.runtime is runtime,
                str(context.key),
                context.silo_id,
                context.now == runtime.scheduler.now,
                await context.actor("Peer", "p").where(),
                context.cancel_timer("t"),
                context.unregister_reminder("r"),
            )

        async def tick(self):
            pass

    runtime.register_actors([Peer, Probe])
    runtime.add_silo("silo-1")

    async def main():
        return await runtime.ref("Probe", "x").use_everything()

    assert runtime.scheduler.run_until_complete(main()) == (
        True,
        "Probe/x",
        "silo-1",
        True,
        "silo-1",
        True,
        True,
    )
