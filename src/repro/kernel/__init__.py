"""Deterministic discrete-event scheduling kernel.

The kernel provides everything the actor runtime and simulators need to run
concurrent coroutines over *virtual* time: futures, tasks, a scheduler,
synchronization primitives, contended-resource models (CPUs, token buckets)
and seeded random streams.  No wall-clock time and no :mod:`asyncio`.
"""

from .futures import Future, all_of, any_of, completed, failed
from .resources import CpuResource, TokenBucket
from .rng import RngRegistry, derive_seed
from .scheduler import Scheduler, Task, TimerHandle, run
from .sync import Event, Lock, Queue, Semaphore

__all__ = [
    "CpuResource",
    "Event",
    "Future",
    "Lock",
    "Queue",
    "RngRegistry",
    "Scheduler",
    "Semaphore",
    "Task",
    "TimerHandle",
    "TokenBucket",
    "all_of",
    "any_of",
    "completed",
    "derive_seed",
    "failed",
    "run",
]
