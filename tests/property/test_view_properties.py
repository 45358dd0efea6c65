"""Property tests: the view fold algebra is a commutative monoid.

Exactly-once view maintenance leans on fold order not mattering: deltas
coalesce per (source silo, shard) stream, so the same inserts can reach a
shard pre-merged in different groupings depending on timing.  These
properties pin the algebraic facts that make that safe.  Values are
integer-valued floats so float associativity cannot blur the comparison —
the production parity check allows an ulp of drift; the algebra itself
should not need it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aodb.views import empty_stats, fold_stats, rank_value, stats_summary

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
