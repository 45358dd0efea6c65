"""Observing never changes the run.

Tracing, profiling and the flight recorder read the simulation; none of
them may schedule an event, move a clock or change a decision.  One
faulted deployment — the partition bench's netsplit (a minority silo cut
from the system store: lease loss, quarantine, fenced scram flushes,
eviction, rejoin, retried asks) — is run on the same seed detached and
under every observability stack, and must come out identical: the same
number of kernel events, the same runtime counters, the same final
virtual time.
"""

from dataclasses import asdict

import pytest

from repro.bench.incidentbench import SMOKE_SENSORS
from repro.bench.partition import (
    RUN_DURATION,
    build_netsplit_deployment,
    start_netsplit,
)
from repro.bench.workload import class_attributes, drive_waves, one_point_batches
from repro.errors import ReproError
from repro.obs.recorder import FlightRecorder
from repro.runtime.persistence import WritePolicy

SEED = 404

MODES = {
    "tracer": (True, False, False),
    "profiler": (False, True, False),
    "tracer+profiler": (True, True, False),
    "tracer+profiler+recorder": (True, True, True),
}


def run_netsplit(tracing: bool, profiling: bool, recording: bool) -> tuple:
    """One netsplit run; returns what observing must not change."""
    from repro.shm.sensor import Sensor

    with class_attributes([Sensor], write_policy=WritePolicy.WRITE_THROUGH):
        deployment = build_netsplit_deployment(SEED, tracing=tracing)
        scheduler = deployment.scheduler
        runtime = deployment.runtime
        runtime.profiler.enabled = profiling
        if recording:
            FlightRecorder(scheduler, seed=SEED).attach(runtime)
        t0 = start_netsplit(deployment, SMOKE_SENSORS)

        async def one_insert(sensor_id: str, wave_time: float) -> None:
            try:
                await deployment.platform.ingest(
                    sensor_id, one_point_batches(sensor_id, wave_time)
                )
            except ReproError:
                pass

        scheduler.run_until_complete(
            drive_waves(
                scheduler,
                deployment.report.sensor_ids,
                t0 + RUN_DURATION,
                one_insert,
            )
        )
        scheduler.run_until_complete(runtime.stop())
    return scheduler.events_processed, asdict(runtime.stats), scheduler.now


@pytest.fixture(scope="module")
def detached():
    return run_netsplit(False, False, False)


def test_the_detached_run_exercises_the_faults(detached):
    _events, stats, _now = detached
    assert stats["silos_quarantined"] >= 1 and stats["silos_evicted"] >= 1
    assert stats["calls_retried"] > 0 and stats["deadlines_exceeded"] > 0


@pytest.mark.parametrize("mode", sorted(MODES))
def test_observing_never_changes_the_run(detached, mode):
    events, stats, now = run_netsplit(*MODES[mode])
    assert events == detached[0]
    assert stats == detached[1]
    assert now == detached[2]
