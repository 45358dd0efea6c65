"""ingest_wave — the paper's Fig. 6 client against one m5.large silo.

Fast path on, persistence off, synchronized jittered waves of 2 x 10 points
per sensor.  kernel + runtime + net loopback batching + shm do the work;
storage only appends to hot heads (no block seals) and aodb is idle.  Also
hosts the ``sustainable_ops_per_sim_s`` rate ladder (:func:`run_rate_ladder`).
"""

from __future__ import annotations

from repro.bench.instances import M5_LARGE
from repro.shm import channel_id_for

from ..deploy import build_shm, ingest, provision_shm, unconserved_channels
from ..loadgen import quantized_walk, wave_fleet
from ..stats import percentile, trimmed_rate
from .base import Audit, RuntimeWorkload, scaled

SENSORS = 1500
SENSORS_PER_ORG = 100
WAVES = 7
POINTS_PER_CHANNEL = 10
SAMPLE_DT = 0.1
WAVE_JITTER = 0.02
WINDOW_CAPACITY = 256
AUDITED_CHANNELS = 64

#: The rate ladder: offered sensors (= ops per virtual second), 5 virtual s each.
LADDER_RATES = (2400, 2800, 3200, 3600)
LADDER_WAVES = 5
LADDER_P99_LIMIT = 1.0
LADDER_MIN_SHARE = 0.98


def wave_batches(rng, waves: int) -> list[tuple[tuple, tuple]]:
    """Per wave, both channels' ``(timestamp, value)`` batches.

    Timestamps are the sensors' own sample clocks (wave ``w`` covers data
    time ``[w, w + 1)``), independent of when the wave is released, so the
    inputs are fixed by the seed even when a saturated system delays waves.
    Every sensor sends the same two signals, as the paper's client does.
    """
    count = waves * POINTS_PER_CHANNEL
    walks = (quantized_walk(rng, count), quantized_walk(rng, count, start=9000))
    batches = []
    for wave in range(waves):
        lo = wave * POINTS_PER_CHANNEL
        stamps = [wave + i * SAMPLE_DT for i in range(POINTS_PER_CHANNEL)]
        batches.append(
            tuple(
                tuple(zip(stamps, walk[lo:lo + POINTS_PER_CHANNEL])) for walk in walks
            )
        )
    return batches


class IngestWave(RuntimeWorkload):
    name = "ingest_wave"
    block_size = WINDOW_CAPACITY
    why = (
        "the paper's Fig. 6 ingest client on one m5.large: kernel+runtime+net "
        "batching+shm carry the ack, storage only appends, aodb idle"
    )

    sensors_full = SENSORS
    waves_full = WAVES

    def setup(self) -> None:
        self.sensors = scaled(self.sensors_full, self.scale, floor=SENSORS_PER_ORG)
        self.waves = scaled(self.waves_full, self.scale, floor=4)
        self.dep = build_shm(
            [M5_LARGE],
            self.seed,
            window_capacity=WINDOW_CAPACITY,
            block_size=WINDOW_CAPACITY,
            tracing=self.tracing,
            profiling=self.profiling,
        )
        self._provision_fleet(SENSORS_PER_ORG)

    def _provision_fleet(self, sensors_per_org: int) -> None:
        """Provision the tenants and draw the fleet's inputs from the seed."""
        dep = self.dep
        self.scheduler = dep.scheduler
        provision_shm(dep, self.sensors, sensors_per_org)
        self.sensor_ids = dep.report.sensor_ids
        self.channels = {
            sensor_id: (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
            for sensor_id in self.sensor_ids
        }
        self.batches = wave_batches(self.rng, self.waves)
        rng = self.rng
        self.jitter = [
            [rng.uniform(0.0, WAVE_JITTER) for _ in self.sensor_ids]
            for _ in range(self.waves)
        ]
        self.accepted = 0

    async def _send(self, sensor_id: str, wave: int) -> None:
        first, second = self.channels[sensor_id]
        samples = self.batches[wave]
        self.attempted += 1
        self.points += 2 * POINTS_PER_CHANNEL
        # Not `self.accepted += await ...`: that reads the counter before the
        # await and loses every concurrent sender's update.
        stored = await ingest(
            self.dep, sensor_id, {first: samples[0], second: samples[1]}
        )
        self.accepted += stored

    def load(self) -> None:
        jitter = self.jitter
        self._run_load(
            wave_fleet(
                self.scheduler,
                self.sensor_ids,
                self.waves,
                self._send,
                lambda wave, index: jitter[wave][index],
                self.recorder,
                "insert",
            )
        )

    def audit(self) -> list[Audit]:
        flat = [c for sensor_id in self.sensor_ids for c in self.channels[sensor_id]]
        audited = flat[:: max(1, len(flat) // AUDITED_CHANNELS)]
        broken = unconserved_channels(
            self.dep, audited, self.waves * POINTS_PER_CHANNEL
        )
        acks = self.recorder.count("insert")
        return [
            Audit("every insert acked", acks == self.sensors * self.waves,
                  f"{acks} of {self.sensors * self.waves}"),
            Audit("inserted == accepted points", self.accepted == self.points,
                  f"accepted {self.accepted}, sent {self.points}"),
            Audit("retained + archived == ingested", not broken,
                  f"{len(audited)} channels audited; broken: {broken[:3]}"),
        ]


class _LadderStep(IngestWave):
    """One fixed offered rate of the ladder: ``sensors`` ops per virtual second."""

    waves_full = LADDER_WAVES

    def __init__(self, seed: int, sensors: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.sensors_full = sensors


def run_rate_ladder(seed: int, scale: float = 1.0) -> dict:
    """Highest offered rate that meets the ack-latency limit without backlog.

    A rate is sustained when ack p99 <= the wave cadence (1.0 s) and the
    completed rate is >= 0.98 x offered — at saturation the closed-loop
    barrier delays the next wave, so throughput falls below what is offered.
    Rates are scaled with ``scale`` only for the self-check.
    """
    steps = []
    sustained = 0.0
    for rate in LADDER_RATES:
        step = _LadderStep(seed, rate, scale)
        step.setup()
        step.load()
        offered = step.sensors / 1.0
        latencies = step.recorder.latencies(("insert",))
        p99 = percentile(latencies, 0.99)
        achieved = trimmed_rate(
            step.recorder.completions(("insert",)),
            step.load_start,
            step.load_end,
            step.rate_window,
        )
        ok = p99 <= LADDER_P99_LIMIT and achieved >= LADDER_MIN_SHARE * offered
        steps.append(
            {
                "offered_ops_per_sim_s": offered,
                "achieved_ops_per_sim_s": achieved,
                "ack_p99_ms": p99 * 1000.0,
                "samples": len(latencies),
                "sustained": ok,
            }
        )
        if ok:
            sustained = max(sustained, offered)
    return {"sustainable_ops_per_sim_s": sustained, "steps": steps}
