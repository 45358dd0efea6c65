"""The partition bench's safety invariants hold on scaled-down runs."""

import pytest

from repro.bench.partition import (
    MINORITY_SILO,
    _check_invariants,
    run_partition_scenario,
)
from repro.bench.workload import InvariantError, _require

SEEDS = (101, 202)


def audited_row(scenario, seed):
    # _check_invariants raises InvariantError on any safety violation (lost
    # updates, dual writers, availability dips); a clean return IS the
    # assertion.
    row, audit = run_partition_scenario(scenario, sensors=6, seed=seed)
    assert _check_invariants(*audit) == []
    return row


@pytest.mark.parametrize("seed", SEEDS)
def test_netsplit_invariants_hold(seed):
    row = audited_row("netsplit", seed)
    assert row["availability"] == 1.0
    assert row["silos_quarantined"] >= 1
    assert row["silos_rejoined"] >= 1
    assert row["silos_evicted"] >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_zombie_invariants_hold(seed):
    row = audited_row("zombie", seed)
    # The stale minority silo kept flushing: storage fencing had to reject
    # at least one of those writes, and nobody quarantined (the zombie mode
    # runs with quarantine_on_lease_loss off).
    assert row["fenced_writes"] > 0
    assert row["silos_quarantined"] == 0
    assert row["silos_rejoined"] >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_invariants_hold(seed):
    row = audited_row("crash", seed)
    # The silent crash of the minority silo lost at most one redo window;
    # the WAL replayed the journaled suffix on re-placement.
    assert row["wal_replayed"] > 0
    assert row["silos_evicted"] >= 1
    assert row["scenario"] == "crash"
    assert MINORITY_SILO == "silo-2"


def test_runs_are_deterministic_per_seed():
    first, _ = run_partition_scenario("netsplit", sensors=6, seed=101)
    second, _ = run_partition_scenario("netsplit", sensors=6, seed=101)
    assert first == second


def test_require_raises_the_typed_invariant_error():
    _require(True, "fine")
    with pytest.raises(InvariantError) as raised:
        _require(False, "lost updates detected")
    assert raised.value.args == ("lost updates detected",)
