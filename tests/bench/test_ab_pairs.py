"""What ``benchmarks/ab_pairs.py`` prints: the verdict per end-to-end metric
and, when the virtual digest moved, the exact counters that did."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(ab_pairs):
    return ab_pairs.verdict


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


def test_moved_counters_names_only_exact_metrics_that_differ(ab_pairs):
    parent = {
        "storage.wcu_per_op": 5.37,
        "storage.kv_writes_per_op": 2.0,
        "storage.host_us_per_op": 70.0,  # host clock: noise, never listed
        "read_p99_ms": 4.0,  # virtual clock
    }
    change = dict(parent, **{
        "storage.wcu_per_op": 4.81, "storage.host_us_per_op": 60.0,
        "read_p99_ms": 5.0,
    })
    assert ab_pairs.moved_counters(parent, change) == [
        ("storage.wcu_per_op", 5.37, 4.81)
    ]
    assert ab_pairs.moved_counters(parent, parent) == []


STUB_LEDGER = """\
import json, sys
trace = sys.argv[sys.argv.index("--trace") + 1]
print("== w  (seed 1, 1 reps)")
print("   virtual_digest abc123")
name = "storage.wcu_per_op" if trace == "1" else "host_us_per_op"
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": 4.5, "unit": "1/op"}}}))
"""


def test_run_once_reads_the_metrics_and_the_digest(ab_pairs, tmp_path):
    ledger = tmp_path / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (ledger / "run.py").write_text(STUB_LEDGER)
    assert ab_pairs.run_once(tmp_path, "w", 1, 1.0) == (
        {"host_us_per_op": 4.5}, "abc123"
    )
    assert ab_pairs.run_once(tmp_path, "w", 1, 1.0, trace=1) == (
        {"storage.wcu_per_op": 4.5}, "abc123"
    )
