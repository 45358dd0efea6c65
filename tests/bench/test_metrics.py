"""Unit tests for benchmark metrics (percentiles, windows, summaries)."""

import gc

import pytest

from repro.bench import LatencyRecorder, Record, percentile


# -- percentile --------------------------------------------------------------


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_bounds_validated():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_percentile_single_value():
    assert percentile([7.0], 0.999) == 7.0


def test_percentile_median_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5


def test_percentile_extremes():
    values = [float(i) for i in range(101)]
    assert percentile(values, 0.0) == 0.0
    assert percentile(values, 1.0) == 100.0
    assert percentile(values, 0.9) == pytest.approx(90.0)


def test_percentile_unsorted_input_is_callers_bug_but_deterministic():
    # Contract: values must be pre-sorted; we document by testing sorted use.
    values = sorted([5.0, 1.0, 3.0])
    assert percentile(values, 0.5) == 3.0


# -- recorder ------------------------------------------------------------------


def fill_recorder():
    recorder = LatencyRecorder()
    # 10 seconds of inserts at 100/s with 10 ms latency.
    for second in range(10):
        for i in range(100):
            recorder.record("insert", second + i / 100.0, 0.010)
    # Sparse queries.
    for second in range(10):
        recorder.record("raw", second + 0.5, 0.050)
    return recorder


def test_window_stats_trims_first_and_last():
    recorder = fill_recorder()
    stats = recorder.window_stats("insert", 1.0, 0.0, 10.0, trim=1)
    assert len(stats) == 8
    assert stats[0].start == 1.0
    assert all(w.throughput == pytest.approx(100.0) for w in stats)


def test_window_stats_no_trim():
    recorder = fill_recorder()
    stats = recorder.window_stats("insert", 1.0, 0.0, 10.0, trim=0)
    assert len(stats) == 10


def test_window_stats_too_few_windows_returns_empty():
    recorder = LatencyRecorder()
    recorder.record("insert", 0.5, 0.01)
    assert recorder.window_stats("insert", 1.0, 0.0, 2.0, trim=1) == []


def test_window_uses_completion_time():
    recorder = LatencyRecorder()
    # Sent in window 0, completes in window 1.
    recorder.record("insert", 0.9, 0.5)
    stats = recorder.window_stats("insert", 1.0, 0.0, 3.0, trim=0)
    assert stats[0].count == 0
    assert stats[1].count == 1


def test_summary_means_and_percentiles():
    recorder = fill_recorder()
    summary = recorder.summarize("insert", 1.0, 0.0, 10.0)
    assert summary is not None
    assert summary.requests == 800  # trimmed to 8 windows
    assert summary.throughput_mean == pytest.approx(100.0)
    assert summary.throughput_std == pytest.approx(0.0)
    assert summary.p50 == pytest.approx(0.010)
    assert summary.p999 == pytest.approx(0.010)


def test_summary_separates_kinds():
    recorder = fill_recorder()
    raw = recorder.summarize("raw", 1.0, 0.0, 10.0)
    assert raw.p50 == pytest.approx(0.050)
    assert raw.throughput_mean == pytest.approx(1.0)


def test_summary_none_when_no_data():
    recorder = LatencyRecorder()
    assert recorder.summarize("live", 1.0, 0.0, 10.0) is None


def test_invalid_window_rejected():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.window_stats("insert", 0.0, 0.0, 1.0)


def test_records_filter():
    recorder = fill_recorder()
    assert len(recorder.records("raw")) == 10
    assert len(recorder.records()) == 1010
    assert recorder.count("insert") == 1000 and recorder.count("live") == 0


def test_records_without_a_kind_group_by_kind():
    recorder = LatencyRecorder()
    recorder.record("raw", 0.0, 0.5)
    recorder.record("insert", 0.1, 0.01)
    recorder.record("raw", 0.2, 0.5)
    assert [(r.kind, r.sent_at) for r in recorder.records()] == [
        ("raw", 0.0), ("raw", 0.2), ("insert", 0.1),
    ]


def test_recording_keeps_no_record_object():
    def live_records():
        gc.collect()
        return sum(isinstance(obj, Record) for obj in gc.get_objects())

    before = live_records()
    recorder = fill_recorder()
    assert recorder.summarize("insert", 1.0, 0.0, 10.0) is not None
    assert live_records() == before
    assert len(recorder) == 1010


# -- edge cases ----------------------------------------------------------------


def test_trim_consuming_all_windows_yields_empty_and_none():
    recorder = fill_recorder()
    # 10 windows, trim=5 from each side: nothing survives.
    assert recorder.window_stats("insert", 1.0, 0.0, 10.0, trim=5) == []
    assert recorder.summarize("insert", 1.0, 0.0, 10.0, trim=5) is None


def test_record_straddling_a_window_boundary_lands_once():
    recorder = LatencyRecorder()
    # Completion exactly on the boundary belongs to the *next* window
    # (floor division), and to exactly one window — never both.
    recorder.record("insert", 0.5, 0.5)  # completes at exactly 1.0
    stats = recorder.window_stats("insert", 1.0, 0.0, 3.0, trim=0)
    assert [w.count for w in stats] == [0, 1, 0]


def test_completion_at_range_end_is_excluded():
    recorder = LatencyRecorder()
    recorder.record("insert", 1.5, 0.5)  # completes at exactly end=2.0
    stats = recorder.window_stats("insert", 1.0, 0.0, 2.0, trim=0)
    assert [w.count for w in stats] == [0, 0]


def test_summary_for_empty_kind_is_none_even_with_other_traffic():
    recorder = fill_recorder()  # has 'insert' and 'raw', never 'live'
    assert recorder.summarize("live", 1.0, 0.0, 10.0) is None


def test_summary_when_only_trimmed_windows_had_records():
    recorder = LatencyRecorder()
    recorder.record("insert", 0.1, 0.01)  # first window (trimmed)
    recorder.record("insert", 9.1, 0.01)  # last window (trimmed)
    assert recorder.summarize("insert", 1.0, 0.0, 10.0) is None
