"""Tests of the load generator on small deployments."""

import pytest

from repro.bench import (
    LoadConfig,
    M5_LARGE,
    M5_XLARGE,
    build_deployment,
    execute,
    provision,
)
from repro.bench.workload import class_attributes, drive_waves, use_short_leases
from repro.kernel import Scheduler
from repro.runtime import WritePolicy


@pytest.fixture
def small_deployment():
    deployment = build_deployment([M5_LARGE], seed=17)
    deployment.scheduler.run_until_complete(provision(deployment, 20))
    return deployment


def test_provision_builds_paper_structure(small_deployment):
    report = small_deployment.report
    assert report.sensors == 20
    assert report.organizations == 1
    assert report.physical_channels == 40
    assert report.virtual_channels == 2


def test_provision_resets_cpu_accounting(small_deployment):
    for silo in small_deployment.runtime.silos():
        assert silo.cpu.busy_seconds == 0.0


def test_run_load_sustains_one_request_per_sensor_per_second(small_deployment):
    result = execute(small_deployment, LoadConfig(sensors=20, duration=6.0))
    summary = result.summary("insert")
    assert summary.throughput_mean == pytest.approx(20.0)
    assert summary.requests == 20 * 4  # 6s minus first+last trimmed windows


def test_run_load_records_queries_when_enabled(small_deployment):
    result = execute(
        small_deployment, LoadConfig(sensors=20, duration=6.0, with_queries=True)
    )
    assert result.summary("live") is not None
    assert result.summary("raw") is not None


def test_run_load_without_queries_records_none(small_deployment):
    result = execute(small_deployment, LoadConfig(sensors=20, duration=6.0))
    assert result.summary("live") is None


def test_run_requires_provision_first():
    deployment = build_deployment([M5_LARGE])
    with pytest.raises(RuntimeError):
        execute(deployment, LoadConfig(sensors=5, duration=2.0))


def test_multi_silo_partitioning_is_round_robin():
    deployment = build_deployment([M5_XLARGE, M5_XLARGE], seed=18)
    deployment.scheduler.run_until_complete(
        provision(deployment, 200, sensors_per_org=100)
    )
    # Each org's subtree landed on its own silo.
    silos = deployment.runtime.silos()
    counts = [silo.activation_count for silo in silos]
    assert counts[0] == counts[1]
    # Sensors of org-0 live on silo-0, org-1 on silo-1.
    from repro.runtime import ActorKey

    directory = deployment.runtime.directory
    assert directory.lookup(ActorKey("Sensor", "org-0/s-0")) == "silo-0"
    assert directory.lookup(ActorKey("Sensor", "org-1/s-0")) == "silo-1"


def test_deterministic_given_seed():
    results = []
    for _ in range(2):
        deployment = build_deployment([M5_LARGE], seed=99)
        deployment.scheduler.run_until_complete(provision(deployment, 30))
        result = execute(
            deployment, LoadConfig(sensors=30, duration=5.0, with_queries=True)
        )
        summary = result.summary("insert")
        results.append((summary.requests, summary.p50, summary.p999))
    assert results[0] == results[1]


def test_utilization_scales_with_sensors():
    utilizations = []
    for sensors in (100, 400):
        deployment = build_deployment([M5_LARGE], seed=5)
        deployment.scheduler.run_until_complete(provision(deployment, sensors))
        result = execute(deployment, LoadConfig(sensors=sensors, duration=4.0))
        utilizations.append(result.mean_utilization)
    assert utilizations[1] == pytest.approx(4 * utilizations[0], rel=0.05)


# -- the shared wave driver ---------------------------------------------------


def drive(service_seconds, stop, sensors=("a", "b", "c")):
    """Drive waves whose inserts take ``service_seconds(sensor_id)``."""
    scheduler = Scheduler()
    spans = []  # (wave_time, sensor_id, started, finished)

    async def insert(sensor_id, wave_time):
        started = scheduler.now
        await scheduler.sleep(service_seconds(sensor_id))
        spans.append((wave_time, sensor_id, started, scheduler.now))

    scheduler.run_until_complete(drive_waves(scheduler, sensors, stop, insert))
    return scheduler, spans


def test_waves_fire_once_a_second_and_never_overlap():
    scheduler, spans = drive(lambda sensor_id: 0.1, stop=3.0)
    assert sorted({wave for wave, *_ in spans}) == [0.0, 1.0, 2.0]
    assert [sensor for wave, sensor, *_ in spans if wave == 1.0] == ["a", "b", "c"]
    for wave, _sensor, started, finished in spans:
        assert wave <= started and finished <= wave + 1.0
    assert scheduler.now == 3.0


def test_a_slow_wave_delays_the_next_instead_of_stacking():
    slowest = {"a": 0.2, "b": 2.5, "c": 0.2}
    _, spans = drive(slowest.__getitem__, stop=6.0)
    waves = sorted({wave for wave, *_ in spans})
    # Each wave starts when the previous one's slowest insert finished.
    assert waves == [0.0, 2.5, 5.0]
    for wave, _sensor, started, _finished in spans:
        assert started == wave


def test_no_wave_starts_at_or_after_stop():
    _, spans = drive(lambda sensor_id: 0.1, stop=2.0)
    assert {wave for wave, *_ in spans} == {0.0, 1.0}
    _, spans = drive(lambda sensor_id: 1.5, stop=3.0)
    assert {wave for wave, *_ in spans} == {0.0, 1.5}  # 3.0 is not < stop


def test_an_error_the_insert_lets_through_ends_the_drive():
    scheduler = Scheduler()

    async def insert(sensor_id, wave_time):
        if wave_time >= 1.0 and sensor_id == "b":
            raise LookupError("sensor b fell off the bridge")
        await scheduler.sleep(0.1)

    with pytest.raises(LookupError):
        scheduler.run_until_complete(
            drive_waves(scheduler, ["a", "b"], 5.0, insert)
        )
    assert scheduler.now < 2.0


# -- the class-attribute (durability, placement) context -------------------------


class Durable:
    write_policy = WritePolicy.ON_DEACTIVATE
    write_interval_seconds = 30.0


class AlsoDurable(Durable):
    write_policy = WritePolicy.INTERVAL


def test_class_attributes_patch_and_restore_on_normal_exit():
    both = (Durable, AlsoDurable)
    with class_attributes(both, write_policy=WritePolicy.WRITE_THROUGH):
        assert Durable.write_policy is WritePolicy.WRITE_THROUGH
        assert AlsoDurable.write_policy is WritePolicy.WRITE_THROUGH
        assert Durable.write_interval_seconds == 30.0  # not named, not touched
    assert Durable.write_policy is WritePolicy.ON_DEACTIVATE
    assert AlsoDurable.write_policy is WritePolicy.INTERVAL


def test_class_attributes_restore_every_attribute_after_a_raise():
    with pytest.raises(KeyError):
        with class_attributes(
            [Durable], write_policy=WritePolicy.INTERVAL, write_interval_seconds=0.5
        ):
            assert Durable.write_interval_seconds == 0.5
            raise KeyError("bench blew up")
    assert Durable.write_policy is WritePolicy.ON_DEACTIVATE
    assert Durable.write_interval_seconds == 30.0


def test_class_attributes_with_no_classes_is_a_no_op():
    with class_attributes((), write_policy=WritePolicy.WRITE_THROUGH):
        assert Durable.write_policy is WritePolicy.ON_DEACTIVATE


def test_short_leases_swap_the_store_and_reannounce_every_silo():
    deployment = build_deployment([M5_LARGE, M5_LARGE], seed=3)
    default_store = deployment.runtime.system_store
    use_short_leases(deployment, 1.5)
    store = deployment.runtime.system_store
    # Nothing runs: stop() closes the silos' queued heartbeat loops now,
    # instead of leaving their coroutines to the collector.
    deployment.scheduler.stop()
    assert store is not default_store
    assert store.lease_seconds == 1.5
    assert store.epoch == 2  # one view change per announced silo
