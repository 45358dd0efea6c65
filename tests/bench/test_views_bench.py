"""The views bench's invariants hold on the smoke run, and the gate works."""

import pytest

from repro.bench.baseline import check_against_baseline, load_baseline
from repro.bench.views import SMOKE_CONFIG, build_views, check_views


@pytest.fixture(scope="module")
def smoke_payload():
    # check_views lists every violated invariant (read cost, exactly-once,
    # staleness); an empty list IS most of the assertion.
    run = build_views(smoke=True)
    assert check_views(run) == []
    return run.payload


def test_smoke_payload_shape(smoke_payload):
    assert smoke_payload["bench"] == "views"
    assert smoke_payload["mode"] == "smoke"
    assert set(smoke_payload["series"]) == {"materialized", "pull"}
    summary = smoke_payload["summary"]
    assert summary["exactly_once"] is True
    assert summary["read_cost_ratio"] >= 10.0
    assert summary["staleness_p99_ms"] <= summary["staleness_bound_ms"]


def test_materialized_reads_are_o_of_groups_asked(smoke_payload):
    materialized = smoke_payload["series"]["materialized"]
    pull = smoke_payload["series"]["pull"]
    assert materialized["asks_per_group_read"] <= 2.0
    # The pull scan pays one ask per sensor in the extent.
    assert pull["asks_per_group_read"] >= SMOKE_CONFIG.sensors


def test_chaos_run_really_exercised_the_dedup_path(smoke_payload):
    chaos = smoke_payload["checks"][0]["chaos"]
    assert chaos["injected_duplicates"] > 0
    assert chaos["injected_losses"] > 0
    assert chaos["points_folded"] == chaos["points_emitted"]
    assert chaos["failed_flushes"] == 0
    assert chaos["pending_deltas"] == 0


def test_committed_baseline_gates_the_fresh_smoke_run(smoke_payload):
    baseline = load_baseline("BENCH_views.json")
    assert check_against_baseline(smoke_payload, baseline) == []
    # And a regressed run fails it.
    import copy

    regressed = copy.deepcopy(smoke_payload)
    regressed["series"]["materialized"]["throughput_rps"] *= 0.5
    failures = check_against_baseline(regressed, baseline)
    assert failures and "throughput" in failures[0]
