"""Model-based test of ``TieredSeries`` against a plain list of pairs.

Seeded random operation sequences drive a series and a reference list side
by side: appends with duplicate timestamps, out-of-order appends (which must
change nothing), and document round trips.  After every step each read
(``len``, ``all_pairs``, ``range``, ``tail``, ``latest``, ``aggregate``)
must agree with the list, eviction must hand back exactly the list's oldest
points, and the shared ``BlockStats`` must balance against ``memory_stats``.
"""

import random

import pytest

from repro.storage.tsblocks import BlockStats, SealedBlock, TieredSeries

SEQUENCES_PER_BLOCK_SIZE = 60
STEPS = 30


def random_batch(rng, last):
    """Up to 6 non-decreasing points after ``last``; some are lists."""
    batch = []
    for _ in range(rng.randrange(7)):
        last += rng.choice((0.0, 0.0, 0.5, 1.0, 2.25))
        pair = (last, rng.randrange(-40, 40) / 4)
        batch.append(list(pair) if rng.random() < 0.2 else pair)
    return batch


def flatten(evicted):
    out = []
    for item in evicted:
        out.extend(item.decode() if type(item) is SealedBlock else [item])
    return out


def check_agrees(series, model, stats, rng):
    assert len(series) == len(model)
    assert series.all_pairs() == model
    assert series.latest() == (model[-1] if model else None)
    assert series.last_timestamp == (model[-1][0] if model else None)
    count = rng.randrange(len(model) + 3)
    assert series.tail(count) == (model[-count:] if count else [])
    stamps = sorted({t for t, _ in model} | {-1.0, 1e9})
    start = rng.choice(stamps) - rng.choice((0.0, 0.25))
    end = start + rng.choice((0.0, 0.5, 1.0, 3.0, 1e9))
    inside = [pair for pair in model if start <= pair[0] < end]
    assert series.range(start, end) == inside
    folded = series.aggregate(start, end)
    assert folded["count"] == len(inside)
    values = [value for _, value in inside]
    assert folded["min"] == (min(values) if values else None)
    assert folded["max"] == (max(values) if values else None)
    memory = series.memory_stats()
    assert stats.head_points == memory["head_points"]
    assert stats.sealed_points == memory["sealed_points"]
    assert stats.block_bytes == memory["block_bytes"]


def run_sequence(seed, block_size):
    rng = random.Random(seed)
    capacity = rng.randint(1, 40)
    stats = BlockStats()
    series = TieredSeries(capacity, block_size, stats=stats)
    model = []
    last = 0.0
    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.1 and model:
            # Out of order: rejected, and nothing changes.
            with pytest.raises(ValueError):
                series.append_many([(model[-1][0] - 1.0, 0.0)])
        elif roll < 0.2:
            document = series.to_document()
            series.detach_stats()
            assert stats.head_points == stats.sealed_points == 0
            assert stats.block_bytes == 0
            series = TieredSeries.from_document(document, stats=stats)
        else:
            batch = random_batch(rng, last)
            if batch:
                last = batch[-1][0]
            evicted = series.append_many(batch)
            model.extend(tuple(pair) for pair in batch)
            excess = max(0, len(model) - capacity)
            assert flatten(evicted) == model[:excess]
            del model[:excess]
        check_agrees(series, model, stats, rng)
    assert all(type(pair) is tuple for pair in series.all_pairs())


@pytest.mark.parametrize("block_size", [0, 1, 2, 3, 5, 8])
def test_tiered_series_agrees_with_a_plain_list(block_size):
    for seed in range(SEQUENCES_PER_BLOCK_SIZE):
        run_sequence(seed, block_size)
