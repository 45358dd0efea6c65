"""What an in-flight insert request holds, counted by type.

The paper's Fig. 6 client keeps every insert in flight for hundreds of
virtual milliseconds, so each kernel object a request holds outlives the
young collections and is promoted.  This guard stops a 100-sensor wave
mid-flight and counts the GC-tracked coroutines, futures, tasks, cells,
functions and bound methods the run holds beyond its idle state, per
request still in flight.  It checks types and counts, not bytes, in the
style of ``tests/runtime/test_activation_footprint.py``.
"""

import gc
import types
from collections import Counter

from repro.bench.instances import M5_LARGE
from repro.bench.workload import build_deployment
from repro.kernel import Task
from repro.kernel.futures import Future
from repro.shm import channel_id_for

SENSORS = 100
#: Mid-wave: 58 of the 100 requests are still in flight then.
STOP_AT = 0.02
POINTS = [(0.1 * index, 20.0 + index) for index in range(10)]

KINDS = {
    "coroutine": types.CoroutineType,
    "Future": Future,
    "Task": Task,
    "cell": types.CellType,
    "function": types.FunctionType,
    "method": types.MethodType,
}

#: Most of each kind one in-flight request may hold.  The test's own client
#: holds a Task, its Future and its coroutine per request.  The platform
#: adds the sensor turn's rest and method coroutines, the sensor's reply,
#: its gather and its two channel replies.  No cell (``Sensor.ingest`` builds
#: its lists with plain loops: on Python 3.11 a comprehension closing over a
#: local makes that local a cell for the whole request), no closure and no
#: bound method.  Measured per in-flight request with the coroutine gather,
#: adopted turn tasks and bound task callbacks: 4.90 coroutines, 5.86
#: futures, 1.97 tasks, 3.86 cells, 0.97 functions and 2.97 bound methods.
ALLOWANCE = {
    "coroutine": 3,
    "Future": 5,
    "Task": 1,
    "cell": 0,
    "function": 0,
    "method": 0,
}


def census() -> Counter:
    gc.collect()
    counts = Counter(type(obj) for obj in gc.get_objects())
    return Counter({name: counts[kind] for name, kind in KINDS.items()})


def held_mid_wave() -> tuple[Counter, int]:
    """Objects of each kind held mid-wave, and the requests in flight."""
    deployment = build_deployment([M5_LARGE], seed=2019, window_capacity=256)
    scheduler, platform = deployment.scheduler, deployment.platform
    report = scheduler.run_until_complete(
        platform.provision(SENSORS, sensors_per_org=SENSORS)
    )
    acked = []

    async def insert(sensor_id: str) -> None:
        # No comprehension: it would add a cell per request on Python 3.11.
        first, second = channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1)
        batches = {first: POINTS, second: POINTS}
        await platform.ingest(sensor_id, batches)
        acked.append(sensor_id)

    idle = census()
    for sensor_id in report.sensor_ids:
        scheduler.spawn(insert(sensor_id))
    scheduler.run_for(STOP_AT)
    held = census()
    held.subtract(idle)
    return held, len(report.sensor_ids) - len(acked)


def test_an_in_flight_request_holds_no_closure_bound_method_or_turn_task():
    held, in_flight = held_mid_wave()
    assert 0 < in_flight < SENSORS  # stopped mid-wave
    over = {
        name: (held[name], allowance * in_flight)
        for name, allowance in ALLOWANCE.items()
        if held[name] > allowance * in_flight
    }
    assert not over, f"{in_flight} requests in flight hold {dict(held)}"
