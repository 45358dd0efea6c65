"""What channels archive, pinned per window / block / archive size.

A platform of three sensors (one with a virtual channel) ingests seeded
waves of uneven batches through its channel actors, so tiered windows seal
and evict whole blocks, and a raw window evicts loose head points.  For each
shape the test pins a digest of every archived stream's ``export()`` as
``(stream, timestamp, payload, sequence)`` tuples, and the archive's
``block_bytes``, ``blocks_sealed``, ``sealed_records`` and ``len``.  A
refactor of window eviction or of the archive must reproduce them exactly.

The four tiered pins were re-recorded when eviction became whole-block:
each window now retains up to ``block_size - 1`` points more, so fewer
points reach the archive (``len``) and the digest's rows and sequences
move; every archived point arrives in a window's block, so
``sealed_records == len`` and the archive seals nothing itself
(``blocks_sealed`` 0); ``block_bytes`` is the windows' blocks, cut at their
block size rather than the archive's.  The raw shape was recorded before
that change and did not move.
"""

import hashlib
import random

import pytest

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform, channel_id_for
from repro.storage import ArchiveLog, InMemoryKVStore

SENSORS = 3
WAVES = 60

#: (window, block, archive) -> (export digest, block_bytes, blocks_sealed,
#: sealed_records, len)
PINNED = {
    (256, 64, 512): ("726b8abb3221f813", 132633, 0, 14080, 14080),
    (256, 256, 512): ("d50f7dd54ccc759d", 129372, 0, 14080, 14080),
    (15, 4, 8): ("13aa2c396211ea33", 225341, 0, 16032, 16032),
    (64, 16, 128): ("f954417866859435", 162304, 0, 15664, 15664),
    (15, 0, 8): ("4440561737ecaf3c", 185716, 2002, 16016, 16044),
}


def run_platform(window, block, archive_block):
    sched = Scheduler()
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(
        sched, config=config, network=network, grain_storage=InMemoryKVStore()
    )
    runtime.add_silo("silo-1", cores=4)
    archive = ArchiveLog(block_size=archive_block)
    platform = ShmPlatform(
        AodbDatabase(runtime),
        window_capacity=window,
        block_size=block,
        archive=archive,
    )
    rng = random.Random(2019)

    async def main():
        report = await platform.provision(total_sensors=SENSORS)
        clock = 0.0
        for _ in range(WAVES):
            for sensor_id in report.sensor_ids:
                # Mostly small batches; now and then one that overflows the
                # window, so whole sealed blocks get evicted too.
                size = rng.randint(200, 400) if rng.random() < 0.05 else (
                    rng.randint(1, 40)
                )
                stamps = []
                for _ in range(size):
                    clock += rng.choice((0.0, 0.01, 0.01, 0.02))
                    stamps.append(clock)
                batches = {
                    channel_id_for(sensor_id, index): [
                        (t, rng.randrange(-4000, 4000) / 64) for t in stamps
                    ]
                    for index in range(2)
                }
                await platform.ingest(sensor_id, batches)
        await sched.sleep(1.0)  # let the virtual channels catch up

    sched.run_until_complete(main())
    return archive


def pin(archive):
    rows = [
        (r.stream, r.timestamp, r.payload, r.sequence)
        for stream in archive.streams()
        for r in archive.export(stream)
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return (
        digest,
        archive.block_bytes,
        archive.blocks_sealed,
        archive.sealed_records,
        len(archive),
    )


@pytest.mark.parametrize("shape", list(PINNED), ids=lambda s: "/".join(map(str, s)))
def test_archive_contents_are_pinned(shape):
    assert pin(run_platform(*shape)) == PINNED[shape]
