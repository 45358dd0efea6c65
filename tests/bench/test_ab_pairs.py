"""The verdict ``benchmarks/ab_pairs.py`` prints per end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


TIGHT = [100.0, 100.5, 101.0, 99.5, 100.0, 100.2, 99.8, 100.1, 100.3, 99.9]
NOISY = [70.0, 130.0, 80.0, 120.0, 100.0, 90.0, 110.0, 75.0, 125.0, 100.0]


def test_within_the_bound_is_ok(verdict):
    change = [value * 1.1 for value in TIGHT]
    assert verdict(TIGHT, change, 0.2, "lower") == "ok"
    assert verdict(TIGHT, TIGHT, 0.2, "lower") == "ok"


def test_past_the_bound_is_worse_in_either_direction(verdict):
    assert verdict(TIGHT, [value * 1.3 for value in TIGHT], 0.2, "lower") == "WORSE"
    assert verdict(TIGHT, [value * 0.7 for value in TIGHT], 0.2, "higher") == "WORSE"
    assert verdict(TIGHT, [value * 1.3 for value in TIGHT], 0.2, "higher") == "ok"


def test_a_noisy_parent_leaves_it_unresolved(verdict):
    # Quartile spread ~40 % of the median against a 20 % bound: even an
    # equal median cannot be told from a worsening within the bound.
    assert verdict(NOISY, NOISY, 0.2, "lower") == "unresolved"
    assert verdict(NOISY, [value * 1.5 for value in NOISY], 0.2, "lower") == (
        "unresolved"
    )


def test_a_clean_win_over_a_noisy_parent_is_ok(verdict):
    change = [value - 80.0 for value in NOISY]  # every run beats every parent
    assert verdict(NOISY, change, 0.2, "lower") == "ok"
    assert verdict(NOISY, [value + 80.0 for value in NOISY], 0.2, "higher") == "ok"
