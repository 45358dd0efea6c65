"""The tsbench's storage invariants hold on the smoke run, and the gate works."""

import copy

import pytest

from repro.bench.baseline import check_against_baseline, load_baseline
from repro.bench.tsbench import (
    COMPRESSION_FLOOR,
    MEMORY_RECLAIM_FLOOR,
    build_tsbench,
    check_tsblocks,
    gate_tsblocks,
    quantized_walk,
)
from repro.bench.workload import InvariantError


@pytest.fixture(scope="module")
def smoke_run():
    # build_tsbench raises InvariantError on a violated in-run audit (query
    # equivalence, conservation) and check_tsblocks on a violated floor or
    # ceiling (memory, compression, scan); clean returns ARE most of the
    # assertion.
    run = build_tsbench(smoke=True)
    assert check_tsblocks(run) == []
    return run


@pytest.fixture(scope="module")
def smoke_payload(smoke_run):
    return smoke_run.payload


def test_quantized_walk_is_deterministic_and_ordered():
    first = quantized_walk(seed=7, count=200)
    again = quantized_walk(seed=7, count=200)
    other = quantized_walk(seed=8, count=200)
    assert first == again
    assert first != other
    stamps = [ts for ts, _ in first]
    assert stamps == sorted(stamps)
    # Values live on the 1/256 fixed-point grid the compressor rewards.
    assert all((v * 256.0).is_integer() for _, v in first)


def test_smoke_payload_shape(smoke_payload):
    assert smoke_payload["bench"] == "tsblocks"
    assert smoke_payload["mode"] == "smoke"
    assert set(smoke_payload["series"]) == {"engine", "platform"}
    summary = smoke_payload["summary"]
    assert summary["memory_reclaimed_x"] >= MEMORY_RECLAIM_FLOOR
    assert summary["compression_ratio"] >= COMPRESSION_FLOOR
    assert summary["archive_sealed_records"] > 0


def test_platform_leg_conserved_points_across_tiers(smoke_payload):
    platform = smoke_payload["series"]["platform"]
    assert (
        platform["points_retained"] + platform["points_archived"]
        == platform["points_ingested"]
    )
    assert platform["points_archived"] > 0
    # Windows evict whole blocks, which the archive keeps as they came.
    assert platform["archive_sealed_records"] == platform["archive_points"]
    assert platform["archive_points"] > platform["points_archived"]
    assert platform["archive_blocks_sealed"] == 0
    assert platform["storage_compression_ratio"] >= COMPRESSION_FLOOR
    # The tiered window really holds less memory than raw buffering would.
    assert (
        platform["sensor_live_bytes"]
        < platform["sensor_raw_equivalent_bytes"]
    )


def test_committed_baseline_gates_the_fresh_smoke_run(smoke_payload):
    baseline = load_baseline("BENCH_tsblocks.json")
    assert check_against_baseline(smoke_payload, baseline, gate_tsblocks) == []
    # The format is frozen: one byte of drift in any tier fails the gate...
    for leg, key in (
        ("engine", "block_bytes"),
        ("platform", "storage_block_bytes"),
        ("platform", "archive_block_bytes"),
    ):
        for drift in (-1, 1):  # better compression is a format change too
            regressed = copy.deepcopy(smoke_payload)
            regressed["series"][leg][key] += drift
            failures = check_against_baseline(regressed, baseline, gate_tsblocks)
            assert len(failures) == 1 and f"{leg} {key}" in failures[0]
    # ...and so does drift in the deterministic sealing counts.
    drifted = copy.deepcopy(smoke_payload)
    drifted["series"]["platform"]["points_archived"] += 1
    failures = check_against_baseline(drifted, baseline, gate_tsblocks)
    assert failures and "points_archived" in failures[0]


def test_invariant_violations_raise_loudly(smoke_run, monkeypatch):
    from repro.bench import tsbench

    monkeypatch.setattr(tsbench, "MEMORY_RECLAIM_FLOOR", 1e9)  # impossible
    with pytest.raises(InvariantError):
        check_tsblocks(smoke_run)
