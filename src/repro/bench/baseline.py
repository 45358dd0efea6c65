"""Perf-regression baselines: the BENCH JSON files and their CI gate.

A *gated* bench's ``run`` returns a :class:`GatedRun`; this module owns
that type, the file format, the gate (:func:`check_against_baseline`, by
default :func:`gate_points`) and the fig6, fig7 and micro benches.

Each fast-path bench commits its numbers to a ``BENCH_<name>.json`` at the
repository root, recording both series of the perf trajectory:

- ``seed`` — the pre-fast-path operating point (``fast_path=False``), i.e.
  the calibration the paper's Figure 6/7 numbers validate;
- ``fast`` — the ingestion fast path (delivery batching + dispatch-overhead
  amortization + directory caching + group commit).

Every file carries a ``full`` mode (the committed figure sweep) and a
``smoke`` mode (a three-point sweep cheap enough for CI).  The CI
perf-regression gate re-runs the *smoke* sweep and compares it against the
committed smoke series::

    python -m repro.bench fig6 --smoke --check-baseline BENCH_fig6.json

The gate fails when any matched point's throughput drops more than 10% or
its p99 insert latency rises more than 15%.  The simulator is deterministic
(seeded virtual time), so a healthy checkout reproduces the baseline
exactly; the tolerances are margin for intentional small reworks, not for
measurement noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import experiments
from .experiments import FigPoint, FigResult, approx
from .workload import class_attributes, violated


@dataclass
class GatedRun:
    """What a gated bench's ``run(smoke)`` returns."""

    #: One mode of the bench's ``BENCH_<name>.json``.
    payload: dict
    #: Raw run objects the bench's ``check`` audits and the JSON rounds away.
    evidence: Any = None


#: Gate thresholds (fractions).  A matched point fails the gate when its
#: fresh throughput is below ``(1 - THROUGHPUT_DROP_TOLERANCE)`` of the
#: baseline, or its fresh p99 exceeds ``(1 + P99_RISE_TOLERANCE)`` of it.
THROUGHPUT_DROP_TOLERANCE = 0.10
P99_RISE_TOLERANCE = 0.15

#: The paper's Figure 6 operating point: one m5.large saturates here.
PAPER_SATURATION_RPS = 1800

#: Smoke sweeps: one point in the linear region, one at the seed saturation
#: knee, one past it where only the fast path keeps up.
FIG6_SMOKE = dict(sensor_counts=(600, 1800, 3000), duration=4.0)
FIG7_SMOKE = dict(scale_factors=(1, 2), duration=4.0)


def _row(point: FigPoint) -> dict:
    row = {
        "sensors": point.sensors,
        "servers": point.servers,
        "offered_rps": point.offered_rps,
        "throughput_rps": round(point.throughput, 2),
        "utilization": round(point.utilization, 4),
    }
    if point.insert is not None:
        row["p50_ms"] = round(point.insert.p50 * 1000, 2)
        row["p99_ms"] = round(point.insert.p99 * 1000, 2)
    return row


def _series(result: FigResult) -> list[dict]:
    return [_row(point) for point in result.points]


def _saturation(rows: list[dict]) -> float:
    return max((row["throughput_rps"] for row in rows), default=0.0)


def _fig_payload(
    bench: str,
    runner: Callable[..., FigResult],
    mode: str,
    smoke_kwargs: dict,
) -> GatedRun:
    kwargs = dict(smoke_kwargs) if mode == "smoke" else {}
    fast = runner(fast_path=True, **kwargs)
    seed = runner(fast_path=False, **kwargs)
    fast_rows, seed_rows = _series(fast), _series(seed)
    payload = {
        "bench": bench,
        "mode": mode,
        "title": fast.title,
        "series": {"seed": seed_rows, "fast": fast_rows},
        "summary": {
            "seed_saturation_rps": _saturation(seed_rows),
            "fast_saturation_rps": _saturation(fast_rows),
            "speedup": round(
                _saturation(fast_rows) / max(1e-9, _saturation(seed_rows)), 3
            ),
        },
    }
    return GatedRun(payload)


def build_fig6(smoke: bool = False) -> GatedRun:
    """Figure 6 (single-server saturation), seed vs fast path."""
    return _fig_payload(
        "fig6", experiments.run_fig6, "smoke" if smoke else "full", FIG6_SMOKE
    )


def check_fig6(run: GatedRun) -> list[str]:
    """The paper's Figure 6 shape, on the ``seed`` series.

    Paper: "roughly 1,800 requests per second can be processed by a
    m5.large instance".  The seed series (``fast_path=False``) is the
    calibration that claim validates; the fast path moves the saturation
    point by design and is held by the baseline gate instead.
    """
    claims = {}
    for row in run.payload["series"]["seed"]:
        offered, rate = row["offered_rps"], row["throughput_rps"]
        busy = row["utilization"]
        point = f"fig6 seed @ {row['sensors']} sensors:"
        if offered < PAPER_SATURATION_RPS:
            # Below saturation the platform keeps up with the offered load
            # exactly.
            claims[f"{point} throughput {rate} tracks the load within 2%"] = approx(
                rate, offered, rel=0.02
            )
        else:
            # At and beyond saturation, throughput plateaus near the paper's
            # 1,800.  The 4-s smoke sweep's 3,000-sensor point reads 1,979
            # (the start-up second weighs more in a short mean; the 8-s full
            # sweep reads 1,774.5): inside the 10% band by 1 req/s.
            rel = 0.05 if offered == PAPER_SATURATION_RPS else 0.10
            claims[
                f"{point} throughput {rate} is within {rel:.0%} of the "
                f"paper's {PAPER_SATURATION_RPS} plateau"
            ] = approx(rate, PAPER_SATURATION_RPS, rel=rel)
        # Utilization reaches (close to) 100% at the plateau.
        if offered > PAPER_SATURATION_RPS:
            claims[f"{point} utilization {busy} > 0.98 at the plateau"] = busy > 0.98
        elif offered <= PAPER_SATURATION_RPS / 3:
            claims[f"{point} utilization {busy} < 0.5"] = busy < 0.5
    return violated(claims)


def build_fig7(smoke: bool = False) -> GatedRun:
    """Figure 7 (scale-out), seed vs fast path."""
    return _fig_payload(
        "fig7", experiments.run_fig7, "smoke" if smoke else "full", FIG7_SMOKE
    )


def check_fig7(run: GatedRun) -> list[str]:
    """The paper's Figure 7 shape, on the ``seed`` series.

    Paper: "the throughput sustained by the data platform scales close to
    linearly with the scale factor", at 2,100 sensors per m5.xlarge — the
    load that leaves ~80% utilization on the seed calibration.
    """
    rows = {row["servers"]: row for row in run.payload["series"]["seed"]}
    base = rows[1]["throughput_rps"]
    busy = [row["utilization"] for row in rows.values()]
    claims = {
        f"fig7 seed @ 1 server: throughput {base} is 2,100 within 2%": approx(
            base, experiments.FIG7_SENSORS_PER_SERVER, rel=0.02
        ),
        # Per-silo utilization stays balanced: no silo saturates first.
        # (Asserted indirectly: aggregate utilization equals the
        # single-server figure at every scale factor.)
        f"fig7 seed: utilization spread {min(busy)}-{max(busy)} < 0.03": (
            max(busy) - min(busy) < 0.03
        ),
    }
    for factor, row in rows.items():
        point = f"fig7 seed @ {factor} servers:"
        # Within a few percent of perfectly linear.
        claims[
            f"{point} throughput {row['throughput_rps']} is {factor}x the "
            "single-server rate within 5%"
        ] = approx(row["throughput_rps"], base * factor, rel=0.05)
        # The paper targets ~80% utilization to leave room for online
        # queries.
        claims[
            f"{point} utilization {row['utilization']:.3f} leaves query "
            "headroom, within [0.70, 0.88]"
        ] = 0.70 <= row["utilization"] <= 0.88
    return violated(claims)


def build_micro(smoke: bool = False) -> GatedRun:
    """Mechanism-level counters proving where the fast path's win comes from.

    Runs one small single-silo load twice (fast path on/off) and reports the
    batching, directory-cache and group-commit counters next to the A/B
    latency numbers — the profiler-style accounting the acceptance criteria
    ask for ("savings come from network/storage, not workload distortion").

    The figure runs follow the paper and disable per-request persistence,
    which leaves group commit idle there; the ``*_durable`` variants rerun
    the same load with write-through channel state against a provisioned
    store so the storage half of the fast path is measured too.
    """
    from ..kernel import Scheduler
    from ..net.latency import ConstantLatency
    from ..runtime.persistence import WritePolicy
    from ..shm.channel import PhysicalSensorChannel
    from ..storage import ProvisionedKVStore
    from .workload import LoadConfig, build_deployment, execute, provision

    sensors = 300 if smoke else 600
    duration = 3.0 if smoke else 6.0
    variants: dict[str, dict] = {}
    plans = [
        ("fast", True, False),
        ("seed", False, False),
        ("fast_durable", True, True),
        ("seed_durable", False, True),
    ]
    for label, fast_path, durable in plans:
        durable_types = (PhysicalSensorChannel,) if durable else ()
        with class_attributes(durable_types, write_policy=WritePolicy.WRITE_THROUGH):
            scheduler = Scheduler()
            store = None
            if durable:
                store = ProvisionedKVStore(
                    scheduler,
                    read_capacity_units=5000.0,
                    write_capacity_units=5000.0,
                    latency=ConstantLatency(0.005),
                )
            deployment = build_deployment(
                [experiments.M5_LARGE],
                seed=11,
                scheduler=scheduler,
                fast_path=fast_path,
                grain_storage=store,
            )
            deployment.scheduler.run_until_complete(
                provision(deployment, sensors)
            )
            run = execute(
                deployment, LoadConfig(sensors=sensors, duration=duration)
            )
        insert = run.summary("insert")
        metrics = run.metrics
        messages = metrics.get("net.messages", 0.0)
        envelopes = metrics.get("net.envelopes", 0.0)
        batched = metrics.get("net.batched_messages", 0.0)
        hits = metrics.get("directory.cache_hits", 0.0)
        misses = metrics.get("directory.cache_misses", 0.0)
        variants[label] = {
            "sensors": sensors,
            "duration_s": duration,
            "throughput_rps": round(
                insert.throughput_mean if insert else 0.0, 2
            ),
            "p50_ms": round((insert.p50 if insert else 0.0) * 1000, 2),
            "p99_ms": round((insert.p99 if insert else 0.0) * 1000, 2),
            "net_messages": messages,
            "envelopes": envelopes,
            "batched_messages": batched,
            "avg_cohort": round(messages / envelopes, 3) if envelopes else 0.0,
            "batched_fraction": round(batched / messages, 3) if messages else 0.0,
            "largest_envelope": metrics.get("net.largest_envelope", 0.0),
            "immediate_flush_fraction": round(
                metrics.get("batch.immediate_flushes", 0.0)
                / max(1.0, metrics.get("batch.flushes", 0.0)),
                3,
            ),
            "directory_cache_hit_rate": round(
                hits / max(1.0, hits + misses), 4
            ),
            "directory_cache_invalidations": metrics.get(
                "directory.cache_invalidations", 0.0
            ),
            "groupcommit_batches": metrics.get("groupcommit.batches", 0.0),
            "groupcommit_round_trips_saved": metrics.get(
                "groupcommit.round_trips_saved", 0.0
            ),
        }
    fast, seed = variants["fast"], variants["seed"]
    fast_durable = variants["fast_durable"]
    payload = {
        "bench": "micro",
        "mode": "smoke" if smoke else "full",
        "title": "Fast-path mechanism microbenchmarks (one m5.large silo)",
        "series": variants,
        "summary": {
            "p50_speedup": round(
                seed["p50_ms"] / max(1e-9, fast["p50_ms"]), 3
            ),
            "durable_p50_speedup": round(
                variants["seed_durable"]["p50_ms"]
                / max(1e-9, fast_durable["p50_ms"]),
                3,
            ),
            "avg_cohort": fast["avg_cohort"],
            "directory_cache_hit_rate": fast["directory_cache_hit_rate"],
            "groupcommit_round_trips_saved": fast_durable[
                "groupcommit_round_trips_saved"
            ],
        },
    }
    return GatedRun(payload)


def check_micro(run: GatedRun) -> list[str]:
    """The fast path's win comes from its mechanisms, not a lighter load."""
    series = run.payload["series"]
    claims = {}
    for label, row in series.items():
        fast, durable = label.startswith("fast"), label.endswith("durable")
        claims |= {
            # Same work on every variant; only its packaging differs.
            f"micro/{label}: sustains the offered load": (
                row["throughput_rps"] == row["sensors"]
            ),
            f"micro/{label}: sends the seed run's messages": (
                row["net_messages"] == series["seed"]["net_messages"]
            ),
            f"micro/{label}: envelopes form cohorts iff on the fast path": (
                (row["avg_cohort"] > 1.0) == fast
            ),
            f"micro/{label}: group commit saves round trips iff fast and durable": (
                (row["groupcommit_round_trips_saved"] > 0) == (fast and durable)
            ),
        }
    return violated(claims)


def write_baseline(path: str | Path, payloads: dict[str, dict]) -> None:
    """Write ``{"modes": {mode: payload}}``, merging into an existing file."""
    target = Path(path)
    document: dict = {"modes": {}}
    if target.exists():
        document = json.loads(target.read_text())
        document.setdefault("modes", {})
    for mode, payload in payloads.items():
        document["modes"][mode] = payload
    document["bench"] = next(iter(payloads.values()))["bench"]
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _gate_rows(
    label: str,
    fresh_rows: list[dict],
    base_rows: list[dict],
    key: Callable[[dict], object],
) -> list[str]:
    failures: list[str] = []
    baseline_by_key = {key(row): row for row in base_rows}
    for row in fresh_rows:
        base = baseline_by_key.get(key(row))
        if base is None:
            continue
        floor = base["throughput_rps"] * (1 - THROUGHPUT_DROP_TOLERANCE)
        if row["throughput_rps"] < floor:
            failures.append(
                f"{label} {key(row)}: throughput {row['throughput_rps']:.1f} "
                f"rps fell below gate {floor:.1f} "
                f"(baseline {base['throughput_rps']:.1f})"
            )
        if "p99_ms" in row and "p99_ms" in base:
            ceiling = base["p99_ms"] * (1 + P99_RISE_TOLERANCE)
            if row["p99_ms"] > ceiling:
                failures.append(
                    f"{label} {key(row)}: p99 {row['p99_ms']:.1f} ms rose "
                    f"above gate {ceiling:.1f} (baseline {base['p99_ms']:.1f})"
                )
    return failures


def gate_points(fresh: dict, base_payload: dict) -> list[str]:
    """The default gate: throughput and p99 of every matched point.

    Gates every point of every series the two payloads share (the fast
    path must not regress, and the seed series doubles as a
    calibration-drift alarm).  A bench whose numbers are not virtual-time
    throughput registers its own gate instead (``speed``, ``tsblocks``).
    """
    failures: list[str] = []
    fresh_series = fresh["series"]
    base_series = base_payload["series"]
    for name in fresh_series:
        if name not in base_series:
            continue
        fresh_rows, base_rows = fresh_series[name], base_series[name]
        if isinstance(fresh_rows, dict):  # micro: one row per variant
            fresh_rows, base_rows = [fresh_rows], [base_rows]
            key = lambda row: name  # noqa: E731
        else:
            key = lambda row: (row["sensors"], row["servers"])  # noqa: E731
        failures.extend(_gate_rows(name, fresh_rows, base_rows, key))
    return failures


def check_against_baseline(
    fresh: dict,
    baseline: dict,
    gate: Callable[[dict, dict], list[str]] = gate_points,
) -> list[str]:
    """Compare a fresh payload to the committed file; return gate failures.

    Matches the fresh run's mode against the same mode in the baseline file
    and hands both payloads to the bench's ``gate``.
    """
    base_payload = baseline.get("modes", {}).get(fresh["mode"])
    if base_payload is None:
        return [
            f"baseline has no '{fresh['mode']}' mode for bench "
            f"'{fresh['bench']}'; regenerate it with --write-baseline"
        ]
    return gate(fresh, base_payload)
