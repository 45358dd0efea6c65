"""Property tests: the view fold algebra is a commutative monoid.

Exactly-once view maintenance leans on fold order not mattering: deltas
coalesce per (source silo, shard) stream, so the same inserts can reach a
shard pre-merged in different groupings depending on timing.  These
properties pin the algebraic facts that make that safe.  Values are
integer-valued floats so float associativity cannot blur the comparison —
the production parity check allows an ulp of drift; the algebra itself
should not need it.  The last property is the exception: it feeds the
write path's inline one-pass fold NaN, ±inf and -0.0, and demands the
exact bit patterns a plain ``fold_stats`` loop produces.
"""

import math
import struct
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aodb.views import (
    GLOBAL_GROUP,
    ViewDef,
    ViewRegistry,
    empty_stats,
    fold_stats,
    rank_value,
    shard_id,
    stats_summary,
)

deltas = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),  # count
        st.integers(min_value=-100, max_value=100),  # per-delta total
        st.integers(min_value=-100, max_value=100),  # vmin
        st.integers(min_value=-100, max_value=100),  # vmax
    ),
    min_size=1,
    max_size=30,
)


def fold_all(items):
    stats = empty_stats()
    for count, total, vmin, vmax in items:
        fold_stats(stats, count, float(total), float(vmin), float(vmax))
    return stats


@given(deltas=deltas, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200)
def test_fold_is_order_independent(deltas, seed):
    import random

    shuffled = list(deltas)
    random.Random(seed).shuffle(shuffled)
    assert fold_all(shuffled) == fold_all(deltas)


@given(deltas=deltas, split=st.integers(min_value=0, max_value=30))
@settings(max_examples=100)
def test_fold_of_premerged_cohorts_equals_direct_fold(deltas, split):
    """Coalescing (merge then fold) cannot change the answer."""
    split = min(split, len(deltas))
    left, right = deltas[:split], deltas[split:]
    merged = empty_stats()
    for part in (left, right):
        if not part:
            continue
        stats = fold_all(part)
        fold_stats(merged, int(stats[0]), stats[1], stats[2], stats[3])
    assert merged == fold_all(deltas)


@given(deltas=deltas)
@settings(max_examples=100)
def test_summary_is_consistent_with_the_raw_fold(deltas):
    stats = fold_all(deltas)
    summary = stats_summary(stats)
    assert summary["count"] == sum(d[0] for d in deltas)
    assert summary["total"] == sum(d[1] for d in deltas)
    assert summary["min"] == min(d[2] for d in deltas)
    assert summary["max"] == max(d[3] for d in deltas)
    assert summary["mean"] == summary["total"] / summary["count"]
    for field in ("mean", "max", "min", "count", "total"):
        assert rank_value(stats, field) == summary[field]


def test_empty_summary_has_no_extrema():
    assert stats_summary(empty_stats()) == {
        "count": 0,
        "total": 0.0,
        "mean": None,
        "min": None,
        "max": None,
    }


# -- the write path's one-pass fold -------------------------------------------------


def reference_emit(definitions, batches):
    """What ``ViewRegistry.emit_from`` emits, as a fold_stats loop per
    definition: ``(shard, group, bucket, count, total, vmin, vmax)``."""
    emitted = []
    for definition in definitions:
        shard = shard_id(definition.name, GLOBAL_GROUP)
        if definition.kind == "window":
            width = definition.window_seconds
            folds = {}
            for points in batches.values():
                for ts, value in points:
                    bucket = math.floor(ts / width) * width
                    stats = folds.setdefault(bucket, empty_stats())
                    fold_stats(stats, 1, value, value, value)
            for bucket in sorted(folds):
                stats = folds[bucket]
                emitted.append((shard, GLOBAL_GROUP, bucket, int(stats[0]),
                                stats[1], stats[2], stats[3]))
        else:
            stats = empty_stats()
            for points in batches.values():
                for _ts, value in points:
                    fold_stats(stats, 1, value, value, value)
            if stats[0]:
                emitted.append((shard, GLOBAL_GROUP, 0.0, int(stats[0]),
                                stats[1], stats[2], stats[3]))
    return emitted


def exact(row):
    """A delta row with every float as its bit pattern (NaN, -0.0 exact)."""
    return tuple(
        (type(item).__name__, struct.pack("<d", item))
        if isinstance(item, float)
        else (type(item).__name__, item)
        for item in row
    )


class EmitRecorder:
    def __init__(self):
        self.rows = []

    def emit(self, shard, group, entity, bucket, count, total, vmin, vmax):
        self.rows.append((shard, group, bucket, count, total, vmin, vmax))
        return None


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
stamps = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([0.0, -0.0])
)
view_kinds = st.lists(
    st.tuples(
        st.sampled_from(["aggregate", "window", "topk"]),
        st.sampled_from([0.1, 0.5, 1.0, 60.0]),
    ),
    min_size=1,
    max_size=4,
)


@given(
    kinds=view_kinds,
    batches=st.dictionaries(
        st.sampled_from(["strain", "temp", "load"]),
        st.lists(st.tuples(stamps, values), max_size=12),
        max_size=3,
    ),
)
@settings(max_examples=200)
def test_one_pass_emit_matches_a_fold_stats_loop(kinds, batches):
    definitions = [
        ViewDef(name=f"v{index}", source="Sensor", kind=kind, window_seconds=width)
        for index, (kind, width) in enumerate(kinds)
    ]
    registry = ViewRegistry(database=None)
    registry._by_source["Sensor"] = definitions
    recorder = EmitRecorder()
    registry._coalescer = lambda silo_id: recorder
    actor = SimpleNamespace(
        key=SimpleNamespace(type_name="Sensor"),
        context=SimpleNamespace(silo_id="silo-0"),
        actor_id="s-1",
        state={},
    )
    registry.emit_from(actor, batches)
    expected = reference_emit(definitions, batches)
    assert [exact(row) for row in recorder.rows] == [exact(row) for row in expected]
