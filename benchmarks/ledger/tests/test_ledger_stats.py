"""Percentile, window-trim and spread maths."""

import math
import statistics

import pytest

from perfledger.stats import (
    percentile,
    quartiles,
    relative_worsening,
    spread_share,
    trimmed_rate,
)


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 50.0
    assert percentile(values, 0.5) == 30.0
    assert percentile(values, 0.875) == pytest.approx(45.0)
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_trimmed_rate_drops_first_and_last_window():
    # 5 whole windows; 100/s in the middle three, ramp-up and tail differ.
    completions = (
        [0.5] * 3
        + [1.0 + i / 100 for i in range(100)]
        + [2.0 + i / 100 for i in range(100)]
        + [3.0 + i / 100 for i in range(100)]
        + [4.2] * 40
    )
    assert trimmed_rate(completions, 0.0, 5.0, 1.0) == pytest.approx(100.0)


def test_trimmed_rate_survives_float_dust_in_the_interval():
    # (start + 7) - start lands a hair under 7: the last window must still count.
    start = 0.1 + 0.2
    end = start + 7.0
    completions = [start + 1.0 + k * 0.01 for k in range(500)]
    assert trimmed_rate(completions, start, end, 1.0) == pytest.approx(100.0)


def test_trimmed_rate_without_cadence_uses_the_whole_run():
    completions = [0.1, 0.2, 0.3, 0.4]
    assert trimmed_rate(completions, 0.0, 0.5, None) == pytest.approx(8.0)
    # Fewer than three whole windows: nothing to trim, whole interval.
    assert trimmed_rate(completions, 0.0, 2.0, 1.0) == pytest.approx(2.0)


def test_quartiles_match_the_contract_definition():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread_share(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_relative_worsening_respects_direction():
    assert relative_worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert relative_worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert relative_worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert relative_worsening(0.0, 0.0, "lower") == 0.0
    assert math.isinf(relative_worsening(0.0, 1.0, "lower"))
