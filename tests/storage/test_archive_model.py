"""Model-based test of ``ArchiveLog`` against plain lists of records.

Seeded random operation sequences drive an archive and one reference list
per stream side by side: single appends, batches and whole sealed blocks
over interleaved streams, with duplicate timestamps, plus out-of-order and
NaN-stamped writes (which must change nothing).  After every step each read
(``len``, ``streams``, ``read_range`` with NaN and infinite bounds,
``tail``, ``export``) must agree with the model, every record's sequence
number must be its place in the global write order, and the sealed counts
must match where a head of ``block_size`` points seals.
"""

import math
import random

import pytest

from repro.storage import ArchiveLog, SealedBlock

SEQUENCES_PER_BLOCK_SIZE = 40
STEPS = 30
STREAMS = ("a", "b", "c")


def random_run(rng, last):
    """1 to 6 non-decreasing ``(timestamp, float)`` points after ``last``."""
    run = []
    for _ in range(rng.randint(1, 6)):
        last += rng.choice((0.0, 0.0, 0.5, 1.0, 2.25))
        run.append((last, rng.randrange(-40, 40) / 4))
    return run


def rows(records):
    return [(r.stream, r.timestamp, r.payload, r.sequence) for r in records]


class Model:
    """What the archive should hold, plus where its heads should seal."""

    def __init__(self, block_size):
        self.block_size = block_size
        self.streams = {}
        self.heads = {}
        self.sequence = 0
        self.blocks_sealed = 0
        self.sealed_records = 0

    def last(self, stream):
        records = self.streams.get(stream)
        return records[-1][1] if records else 0.0

    def add(self, stream, run, as_block=False):
        records = self.streams.setdefault(stream, [])
        for timestamp, value in run:
            self.sequence += 1
            records.append((stream, timestamp, value, self.sequence))
        head = self.heads.get(stream, 0)
        if as_block:
            # A pending head seals first; the block itself is stored as is.
            if head:
                self.blocks_sealed += 1
                self.sealed_records += head
            self.sealed_records += len(run)
            self.heads[stream] = 0
            return
        head += len(run)
        while self.block_size and head >= self.block_size:
            head -= self.block_size
            self.blocks_sealed += 1
            self.sealed_records += self.block_size
        self.heads[stream] = head


def write(log, op, stream, run):
    if op == "append":
        for timestamp, value in run:
            log.append(stream, timestamp, value)
    elif op == "extend":
        log.extend(stream, run)
    else:
        log.append_block(stream, SealedBlock.seal(run))


def check_agrees(log, model, rng):
    everything = [row for records in model.streams.values() for row in records]
    assert len(log) == len(everything)
    assert log.streams() == sorted(s for s, records in model.streams.items() if records)
    assert sorted(row[3] for row in everything) == list(range(1, model.sequence + 1))
    assert log.blocks_sealed == model.blocks_sealed
    assert log.sealed_records == model.sealed_records
    for stream in STREAMS + ("missing",):
        expected = model.streams.get(stream, [])
        assert rows(log.export(stream)) == expected
        assert [r.sequence for r in log.export(stream)] == [
            row[3] for row in expected
        ]
        count = rng.randrange(len(expected) + 3)
        assert rows(log.tail(stream, count)) == (expected[-count:] if count else [])
        stamps = sorted({row[1] for row in expected} | {-1.0, 1e9})
        start = rng.choice(stamps + [-math.inf, math.inf, math.nan])
        start -= rng.choice((0.0, 0.25))
        end = rng.choice((start, start + 0.5, start + 3.0, math.inf, math.nan))
        inside = [row for row in expected if start <= row[1] < end]
        assert rows(log.read_range(stream, start, end)) == inside, (start, end)


def run_sequence(seed, block_size):
    rng = random.Random(seed)
    log = ArchiveLog(block_size=block_size)
    model = Model(block_size)
    for _ in range(STEPS):
        stream = rng.choice(STREAMS)
        op = rng.choice(("append", "extend", "block"))
        last = model.last(stream)
        roll = rng.random()
        if roll < 0.15:
            # Older than the stream's newest point (or NaN-stamped): the
            # write is rejected whole and nothing changes.
            first = math.nan if roll < 0.05 or stream not in model.streams else (
                last - rng.choice((0.25, 1.0))
            )
            run = [(first, 1.0)] + random_run(rng, last)
            with pytest.raises(ValueError):
                write(log, op, stream, run)
        else:
            run = random_run(rng, last)
            write(log, op, stream, run)
            model.add(stream, run, as_block=op == "block")
        check_agrees(log, model, rng)


@pytest.mark.parametrize("block_size", [0, 1, 2, 3, 8, 64])
def test_archive_agrees_with_plain_lists(block_size):
    for seed in range(SEQUENCES_PER_BLOCK_SIZE):
        run_sequence(seed, block_size)
