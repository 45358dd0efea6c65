"""The driver's reference answers, checked against the storage engine itself."""

import random

from repro.storage import TieredSeries

from perfledger.loadgen import quantized_walk
from perfledger.reference import fold_points, wave_slice


def test_wave_slice_cuts_whole_waves_in_data_time():
    walk = [float(i) for i in range(40)]
    got = wave_slice(walk, 1, 3, 10, 0.1)
    assert len(got) == 20
    assert got[0] == (1.0, 10.0)
    assert got[10] == (2.0, 20.0)
    assert got[-1] == (2 + 9 * 0.1, 29.0)
    assert all(1.0 <= ts < 3.0 for ts, _value in got)
    assert wave_slice(walk, 2, 2, 10, 0.1) == ()


def test_fold_points_shape_matches_the_program_and_handles_empty():
    assert fold_points([]) == {
        "count": 0, "min": None, "max": None, "sum": 0.0, "mean": None,
    }
    assert fold_points([(0.0, 2.0), (1.0, 4.0)]) == {
        "count": 2, "min": 2.0, "max": 4.0, "sum": 6.0, "mean": 3.0,
    }


def test_reference_equals_a_tiered_series_fed_the_same_waves():
    # Small window + small blocks: sealing, eviction and the old-side buffer
    # all come into play, and the reference must still match exactly.
    walk = quantized_walk(random.Random(11), 400)
    series = TieredSeries(capacity=256, block_size=64)
    for wave in range(40):
        series.append_many(wave_slice(walk, wave, wave + 1, 10, 0.1))
    # The newest 256 points are retained: waves 15.. are fully present.
    for lo, hi in ((15, 18), (20, 40), (38, 40), (16, 16)):
        expected = wave_slice(walk, lo, hi, 10, 0.1)
        assert series.range(float(lo), float(hi)) == list(expected)
        assert series.aggregate(float(lo), float(hi)) == fold_points(expected)
