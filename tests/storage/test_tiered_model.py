"""Model-based test of ``TieredSeries`` against a plain list of pairs.

Seeded random operation sequences drive a series and a reference list side
by side: appends with duplicate timestamps, out-of-order appends (which must
change nothing), and document round trips (bit-exact, ``-0.0`` and
infinities included).  After every step each read
(``len``, ``all_pairs``, ``range``, ``tail``, ``latest``, ``aggregate``)
must agree with the list, and the shared ``BlockStats`` must balance against
``memory_stats``.  Eviction has its own oracle (:func:`check_eviction`): the
retained points are the newest ones appended, and what left is every older
point, in order, in whole blocks or, without blocks, in head slices.
"""

import math
import random
import struct
from itertools import chain

import pytest

from repro.storage.tsblocks import BlockStats, SealedBlock, TieredSeries

SEQUENCES_PER_BLOCK_SIZE = 60
STEPS = 30


#: Values a float round trip can get wrong while ``==`` still passes
#: (``-0.0``) or that sit at the edge of the float range.
SPECIAL_VALUES = (-0.0, math.inf, -math.inf)


def random_batch(rng, last):
    """Up to 6 non-decreasing points after ``last``; some are lists."""
    batch = []
    for _ in range(rng.randrange(7)):
        last += rng.choice((0.0, 0.0, 0.5, 1.0, 2.25))
        if rng.random() < 0.1:
            value = rng.choice(SPECIAL_VALUES)
        else:
            value = rng.randrange(-40, 40) / 4
        pair = (last, value)
        batch.append(list(pair) if rng.random() < 0.2 else pair)
    return batch


def bits(pairs):
    """The pairs as raw float64 bytes: equal only when bit-identical."""
    return struct.pack(f"<{2 * len(pairs)}d", *chain.from_iterable(pairs))


def flatten(evicted):
    out = []
    for run in evicted:
        out.extend(run.decode() if type(run) is SealedBlock else run)
    return out


def check_eviction(series, evicted, history, archived):
    """The whole-block retention contract after one ``append_many``.

    ``history`` is every point appended so far and ``archived`` every point
    evicted before this call; the call's runs are added to ``archived``.
    """
    for run in evicted:
        # Whole sealed blocks, or a head slice only in a series left without
        # blocks (a raw window, or one whose blocks could never be retained).
        assert type(run) is SealedBlock or (
            type(run) is list and not series.sealed_blocks
        )
    archived.extend(flatten(evicted))
    # Retained + evicted runs == every point appended, in order, so the
    # retained points are exactly the newest ``len(series)`` of them.
    assert archived + series.all_pairs() == history
    capacity, block_size = series.capacity, series.block_size
    floor = min(capacity, len(history))
    if block_size == 0 or block_size > capacity:
        assert len(series) == floor  # point-exact
    else:
        assert floor <= len(series) <= capacity + block_size - 1


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
    history = []
    archived = []
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
            assert bits(series.all_pairs()) == bits(model)
        else:
            batch = random_batch(rng, last)
            if batch:
                last = batch[-1][0]
            evicted = series.append_many(batch)
            history.extend(tuple(pair) for pair in batch)
            check_eviction(series, evicted, history, archived)
            model = history[len(archived):]
        check_agrees(series, model, stats, rng)
    assert all(type(pair) is tuple for pair in series.all_pairs())


@pytest.mark.parametrize("block_size", [0, 1, 2, 3, 5, 8])
def test_tiered_series_agrees_with_a_plain_list(block_size):
    for seed in range(SEQUENCES_PER_BLOCK_SIZE):
        run_sequence(seed, block_size)
