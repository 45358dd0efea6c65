"""The bench registry: one entry per bench, and every check can say no.

No simulation runs here.  Positive controls replay the committed
``BENCH_*.json`` payloads through their checks; each negative control is a
committed payload or a hand-made result, doctored in one place.
"""

import copy
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.baseline import GatedRun
from repro.bench.chaos import ChaosConfig, ChaosResult
from repro.bench.cli import BENCHES, build_parser
from repro.bench.elastic import VariantResult
from repro.bench.experiments import AblationResult, FigPoint, FigResult
from repro.bench.profilebench import ProfileScenario
from repro.bench.tracebench import TraceScenario
from repro.bench.views import SMOKE_CONFIG as VIEWS_SMOKE_CONFIG
from repro.bench.workload import InvariantError
from repro.obs.profile import ProfileReport
from repro.obs.trace import Span, TraceTree
from repro.shm.platform import channel_id_for

ROOT = Path(__file__).resolve().parents[2]
GATED = sorted(name for name, bench in BENCHES.items() if bench.gate)


def committed(name: str, mode: str = "smoke") -> dict:
    document = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    return copy.deepcopy(document["modes"][mode])


def violations(name: str, result) -> list[str]:
    """What the CLI would report: returned or raised, it is one list."""
    try:
        return BENCHES[name].check(result)
    except InvariantError as exc:
        return list(exc.args)


# -- the registry's shape -----------------------------------------------------


def test_every_entry_has_run_and_check():
    for name, bench in BENCHES.items():
        assert callable(bench.run) and callable(bench.check), name


def test_cli_choices_are_the_registry():
    (positional,) = [
        action for action in build_parser()._actions if action.dest == "bench"
    ]
    assert positional.choices == [*BENCHES, "all"]


def test_ci_matrix_is_the_registry():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"bench:\s*\[([^\]]*)\]", workflow)
    assert sorted(re.findall(r"[\w-]+", matrix)) == sorted(BENCHES)


def test_gated_benches_are_the_committed_baselines():
    on_disk = sorted(
        path.stem.removeprefix("BENCH_") for path in ROOT.glob("BENCH_*.json")
    )
    assert on_disk == GATED
    for name in GATED:
        modes = json.loads((ROOT / f"BENCH_{name}.json").read_text())["modes"]
        assert {mode["bench"] for mode in modes.values()} == {name}


# -- paper fidelity: Figures 6 and 7 are checked on the seed series ------------


@pytest.mark.parametrize("mode", ["full", "smoke"])
@pytest.mark.parametrize("name", ["fig6", "fig7", "micro", "tsblocks"])
def test_committed_payloads_pass_their_checks(name, mode):
    assert violations(name, GatedRun(committed(name, mode))) == []


@pytest.mark.parametrize(
    "name, mode, offender",
    [
        ("fig6", "full", "2400 sensors: throughput 2400.0"),
        ("fig6", "smoke", "3000 sensors: throughput 3000.0"),
        ("fig7", "full", "utilization 0.456"),
        ("fig7", "smoke", "utilization 0.456"),
    ],
)
def test_fast_series_does_not_have_the_papers_shape(name, mode, offender):
    # The regression PR 4 introduced unseen: the fast path moves fig6's
    # saturation point and halves fig7's utilization by design, so the
    # paper's numbers must be asserted on the seed series.
    payload = committed(name, mode)
    payload["series"]["seed"] = payload["series"]["fast"]
    found = violations(name, GatedRun(payload))
    assert any(offender in violation for violation in found), found


# -- one negative control per bench --------------------------------------------


def doctored_micro():
    payload = committed("micro")
    payload["series"]["fast"]["avg_cohort"] = 1.0  # batching never engaged
    return GatedRun(payload)


def doctored_tsblocks():
    payload = committed("tsblocks")
    payload["series"]["engine"]["compression_ratio"] = 1.0
    return GatedRun(payload)


def views_run(payload: dict) -> GatedRun:
    """Rebuild the views bench's evidence from a committed payload."""
    steady = payload["checks"][0]["steady"]
    row = payload["series"]["materialized"]
    materialized = {
        "row": row,
        "extras": {
            "points_acked": steady["points_acked"],
            "view_total_count": steady["view_total_count"],
            "alerts": steady["alerts"],
            "parity_ok": True,
            "failed_flushes": 0,
            "staleness_p99": row["staleness_p99_ms"] / 1000,
        },
    }
    pull = {
        "row": payload["series"]["pull"],
        "extras": {"points_acked": 7, "view_total_count": 7},
    }
    chaos = payload["checks"][0]["chaos"]
    return GatedRun(payload, (materialized, pull, chaos, VIEWS_SMOKE_CONFIG))


def doctored_views():
    run = views_run(committed("views"))
    run.evidence[2]["points_folded"] += 1  # one delta folded twice
    return run


def elastic_day(**auto_fields) -> tuple:
    day = dict(attempted=10, acked=10, points_sent=40, points_acked=40)
    auto = VariantResult(
        "autoscaled",
        **{
            **day,
            "silo_seconds": 50.0,
            "migrations": 3,
            "scale_ups": 1,
            "scale_downs": 1,
            **auto_fields,
        },
    )
    return auto, VariantResult("static", silo_seconds=100.0, **day), 17


def partition_audit(stored_points: int) -> tuple:
    sensor_id = "org-0/s-0"
    stored = {channel_id_for(sensor_id, 0): stored_points}
    stored[channel_id_for(sensor_id, 1)] = 24
    counters = dict.fromkeys(
        ("attempted", "succeeded", "majority_attempted", "majority_succeeded"), 24
    )
    stats = SimpleNamespace(silos_quarantined=1, silos_rejoined=1, silos_evicted=1)
    return "netsplit", [sensor_id], {sensor_id: 24}, stored, counters, stats, {}, 4


def chaos_triple(**on_fields) -> tuple:
    config = ChaosConfig()
    healthy = dict(
        goodput=[10] * 8,
        attempted=80,
        succeeded=80,
        pre_crash_throughput=10.0,
        recovery_seconds=2.0,
        calls_retried=5,
        silos_evicted=1,
        activations_crashed=4,
    )
    on = ChaosResult(config, **{**healthy, **on_fields})
    off = ChaosResult(
        config,
        attempted=80,
        succeeded=70,
        failed=10,
        errors_by_type={"SiloUnavailableError": 10},
    )
    return on, off, ChaosResult(config, **healthy)


def unmeasured_figure(figure: str) -> FigResult:
    points = [
        FigPoint(
            sensors=sensors,
            servers=1,
            offered_rps=float(sensors),
            throughput=float(sensors),
            throughput_std=0.0,
            utilization=sensors / 4400,
        )
        for sensors in (500, 2000)
    ]
    return FigResult(figure, "no query was measured", points=points)


def unfinished_trace() -> TraceScenario:
    tree = TraceTree.build([Span(1, None, 1, "insert-wave", "client", "client", 0.0)])
    return TraceScenario(
        sensors=4, org_id="org-0", insert_tree=tree, live_tree=tree, metrics={}
    )


def idle_profile() -> ProfileScenario:
    return ProfileScenario(
        sensors=6,
        duration=3.0,
        report=ProfileReport(0.0, 0.0, 0, [], [], []),
        monitor=SimpleNamespace(evaluations=0),
        pump=SimpleNamespace(ticks=0),
        last_shipment={},
        monitor_history={},
        aggregator_series=[],
        aggregator_info={},
        metrics={},
    )


def fast_as_seed(name: str) -> GatedRun:
    payload = committed(name)
    payload["series"]["seed"] = payload["series"]["fast"]
    return GatedRun(payload)


DOCTORED = {
    "fig6": lambda: fast_as_seed("fig6"),
    "fig7": lambda: fast_as_seed("fig7"),
    "fig8": lambda: unmeasured_figure("fig8"),
    "fig9": lambda: unmeasured_figure("fig9"),
    "placement": lambda: AblationResult(
        "placement",
        rows=[
            # Both strategies equally remote: placement bought nothing.
            dict(strategy=s, remote_fraction=0.8, insert_p50=0.01, throughput=800.0)
            for s in ("prefer_local", "random")
        ],
        notes={"sensors": 800},
    ),
    "durability": lambda: AblationResult(
        "durability",
        rows=[
            # Every policy writes through: deferral never deferred.
            dict(policy=p, writes_per_second=60.0, writes_at_shutdown=0, insert_p50=0.1)
            for p in ("write_through", "interval_5s", "on_deactivate")
        ],
        notes={"sensors": 30},
    ),
    "granularity": lambda: AblationResult(
        "granularity",
        rows=[
            dict(model=m, messages=1000, activations=100, virtual_seconds=1.0)
            for m in ("model_a_actors", "model_b_objects")
        ],
    ),
    "constraints": lambda: AblationResult(
        "constraints",
        rows=[
            dict(flavour="transaction", invariant_holds=True, commits=59,
                 aborts=1, per_transfer_ms=6.6, messages=548),
            dict(flavour="workflow", invariant_holds=True, commits=0,
                 aborts=0, per_transfer_ms=0.26, messages=368),
        ],
        notes={"transfers": 60},
    ),
    "cattle": lambda: AblationResult(
        "cattle_scaling",
        rows=[
            # Throughput keeps tracking the offered load past saturation.
            dict(cows=c, throughput=float(c), p99_ms=c / 5, utilization=c / 5000)
            for c in (1000, 5000, 6000)
        ],
        notes={"predicted_saturation_cows": 5000},
    ),
    "chaos": lambda: chaos_triple(failed=1, succeeded=79),
    "micro": doctored_micro,
    "elastic": lambda: GatedRun({}, [elastic_day(lost=1)]),
    "partition": lambda: GatedRun({}, [partition_audit(stored_points=23)]),
    "views": doctored_views,
    "tsblocks": doctored_tsblocks,
    "trace": unfinished_trace,
    "profile": idle_profile,
    "incident": lambda: {"silos_quarantined": 0},
}


def test_every_bench_has_a_negative_control():
    assert set(DOCTORED) == set(BENCHES)


@pytest.mark.parametrize("name", list(DOCTORED))
def test_check_rejects_a_doctored_result(name):
    assert violations(name, DOCTORED[name]()) != []


def test_hand_made_controls_pass_until_doctored():
    # The hand-made results are rejected for the doctored field, not for
    # being hand-made: undoctored, the same builders pass.
    assert violations("elastic", GatedRun({}, [elastic_day()])) == []
    assert violations("partition", GatedRun({}, [partition_audit(24)])) == []
    assert violations("chaos", chaos_triple()) == []
    assert violations("views", views_run(committed("views"))) == []


def test_replay_divergence_is_a_chaos_violation():
    found = violations("chaos", chaos_triple(goodput=[10] * 7 + [9]))
    assert found == ["the replay reproduces goodput"]
