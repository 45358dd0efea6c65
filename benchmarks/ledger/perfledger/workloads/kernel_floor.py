"""kernel_floor — the Fig. 6 event shape on the bare kernel.

Only ``repro.kernel`` runs (``Scheduler``, ``Queue``, ``Future``): every
sensor, once per 1 s wave and after its jitter, hands a batch to each of its
two channel queues; the channel server fans the batch out into 20 per-point
service timers and acks; the sensor awaits both acks under a deadline that
never fires.  It is the bottom rung of the layer ladder and the "no change
predicted" control for every layer above the kernel.
"""

from __future__ import annotations

from repro.kernel import Future, Queue, Scheduler

from ..loadgen import wave_fleet
from .base import Audit, Workload, scaled

SENSORS = 1500
WAVES = 8
POINTS = 20
ACK_DEADLINE = 50.0
WAVE_JITTER = 0.014


class KernelFloor(Workload):
    name = "kernel_floor"
    why = (
        "Fig. 6 event shape on bare repro.kernel; bottom rung of the ladder and "
        "the no-change control for every layer above the kernel"
    )
    write_kinds = ("wave_ack",)

    def setup(self) -> None:
        rng = self.rng
        self.sensors = scaled(SENSORS, self.scale, floor=40)
        self.waves = scaled(WAVES, self.scale, floor=4)
        scheduler = self.scheduler = Scheduler()
        self.queues = [Queue(scheduler) for _ in range(2 * self.sensors)]
        # Seeded inputs: per-channel service base and per-(wave, sensor) jitter.
        self.service = [rng.uniform(0.0003, 0.0005) for _ in self.queues]
        self.jitter = [
            [rng.uniform(0.0, WAVE_JITTER) for _ in range(self.sensors)]
            for _ in range(self.waves)
        ]
        self.acked_points = 0
        self.servers = [
            scheduler.spawn(self._channel_server(queue, base))
            for queue, base in zip(self.queues, self.service)
        ]

    async def _channel_server(self, queue: Queue, base: float) -> None:
        sleep = self.scheduler.sleep
        gather = self.scheduler.gather
        # Per-point service timers.  map() keeps the fan-out in C, so the
        # profile charges this loop to the kernel it exercises, not the driver.
        delays = [base + 0.00005 * j for j in range(POINTS)]
        while True:
            batch = await queue.get()
            if batch is None:
                return
            points, ack = batch
            await gather(map(sleep, delays))
            ack.set_result(points)

    async def _send(self, sensor: int, wave: int) -> None:
        timeout = self.scheduler.timeout
        ack_a: Future[int] = Future()
        ack_b: Future[int] = Future()
        self.queues[2 * sensor].put_nowait((POINTS, ack_a))
        self.queues[2 * sensor + 1].put_nowait((POINTS, ack_b))
        self.attempted += 1
        stored = await self.scheduler.gather(
            [timeout(ack_a, ACK_DEADLINE), timeout(ack_b, ACK_DEADLINE)]
        )
        self.acked_points += sum(stored)

    def load(self) -> None:
        jitter = self.jitter
        self._run_load(
            wave_fleet(
                self.scheduler,
                range(self.sensors),
                self.waves,
                self._send,
                lambda wave, index: jitter[wave][index],
                self.recorder,
                "wave_ack",
            )
        )

    def after_load(self) -> None:
        self.events = self.scheduler.events_processed
        self.timer_cancels = self.scheduler.timer_cancels

    def drain(self) -> None:
        async def stop_servers() -> None:
            for queue in self.queues:
                queue.put_nowait(None)
            await self.scheduler.gather(self.servers)

        self.scheduler.run_until_complete(stop_servers())

    def audit(self) -> list[Audit]:
        expected_ops = self.sensors * self.waves
        acks = self.recorder.count("wave_ack")
        return [
            Audit("every sensor-wave acked", acks == expected_ops,
                  f"{acks} acks of {expected_ops}"),
            Audit("acks carry every point",
                  self.acked_points == expected_ops * 2 * POINTS,
                  f"{self.acked_points} of {expected_ops * 2 * POINTS}"),
            Audit("channel servers all stopped",
                  all(task.done() for task in self.servers)),
            # The event count itself is part of virtual_digest: every rep of
            # one seed must reproduce it exactly.
            Audit("no deadline timer survives the run",
                  self.scheduler.pending_events <= 1,
                  f"{self.scheduler.pending_events} pending"),
        ]

    def counters(self) -> dict[str, float]:
        ops = self.ops
        return {
            "kernel.events_per_op": self.events / ops,
            "kernel.pending_events_peak": max(self.pending_samples, default=0),
            "kernel.timer_cancels_per_op": self.timer_cancels / ops,
        }
