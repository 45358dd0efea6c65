"""What ``benchmarks/gc_scale.py`` prints per horizon, without a deployment."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "gc_scale.py"


@pytest.fixture(scope="module")
def gc_scale():
    spec = importlib.util.spec_from_file_location("gc_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def point(seconds, us_per_request):
    return {
        "factor": 1,
        "seconds": seconds,
        "activations": 6531,
        "objects_per_activation": 9.0,
        "collections": [10, 2, 1],
        "collection_s": [0.1, 0.05, 0.3],
        "load_s": 1.5,
        "us_per_request": us_per_request,
        "peak_rss_mb": 77.4,
    }


def test_several_horizons_parse_shortest_first(gc_scale):
    assert gc_scale.parse_args(["--seconds", "30", "6", "120"]).seconds == [
        6.0, 30.0, 120.0,
    ]
    assert gc_scale.parse_args([]).seconds == [6.0]
    smoke = gc_scale.parse_args(["--smoke", "--seconds", "30"])
    assert (smoke.scale, smoke.seconds) == ([1], [2.0])


def test_each_row_shows_its_horizon_and_cost_over_the_shortest(gc_scale):
    shortest = point(6.0, 200.0)
    rows = [
        gc_scale.format_row(shortest, shortest),
        gc_scale.format_row(point(120.0, 230.0), shortest),
    ]
    header = gc_scale.HEADER.split()
    assert header[:2] == ["SF", "secs"] and header[-1] == "x_short"
    first, second = (row.split() for row in rows)
    assert first[:2] == ["1", "6"] and first[-1] == "1.00"
    assert second[:2] == ["1", "120"] and second[-1] == "1.15"
    assert second[-3:-1] == ["230.0", "77.4"]
    assert all(len(row) == len(gc_scale.HEADER) for row in rows)
