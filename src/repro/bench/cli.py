"""Command-line entry point and the registry of every bench.

Every bench is one :class:`Bench` entry in :data:`BENCHES`: how to run it
(full or ``--smoke``), the invariants its result must keep and, for the
eight with a committed ``BENCH_<name>.json``, how a fresh payload is gated
against it.  ``python -m repro.bench --help`` lists them all::

    python -m repro.bench fig6            # one bench, full scale
    python -m repro.bench fig7 --smoke    # its reduced parameter set (CI)
    python -m repro.bench all --smoke     # every bench
    python -m repro.bench trace           # traced run: causal trees
    python -m repro.bench incident        # recorded netsplit: postmortem dump

Every run, full or smoke, ends with its ``check``: each violated invariant
is printed and the exit status is 1.

Perf baselines (fig6 fig7 micro elastic partition speed views tsblocks)::

    python -m repro.bench fig6 --write-baseline BENCH_fig6.json
                                          # run full + smoke sweeps, commit
    python -m repro.bench fig6 --smoke --check-baseline BENCH_fig6.json
                                          # CI perf-regression gate
    python -m repro.bench micro --smoke --json fresh.json
                                          # write the fresh payload only
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from . import baseline, experiments
from .baseline import (
    check_against_baseline,
    gate_points,
    load_baseline,
    write_baseline,
)
from .chaos import check_chaos, run_chaos_experiment
from .report import format_payload, format_result
from .workload import InvariantError


@dataclass(frozen=True)
class Bench:
    """One registered bench.

    ``run(smoke)`` returns the result (and may raise
    :class:`InvariantError` from an audit that needs the live deployment);
    ``check(result)`` returns the invariants the result violates, or raises
    them.  ``gate(fresh, committed)``, set on the benches with a committed
    ``BENCH_<name>.json`` (their result is a
    :class:`~repro.bench.baseline.GatedRun`), returns the perf regressions
    between two payloads of one mode.  ``render(result)`` is the report of
    an ungated bench.
    """

    run: Callable[[bool], Any]
    check: Callable[[Any], list[str]]
    gate: Callable[[dict, dict], list[str]] | None = None
    render: Callable[[Any], str] = format_result


def _sweep(runner: Callable[..., Any], **smoke: Any) -> Callable[[bool], Any]:
    """A driver's ``run``: its defaults, or its one reduced parameter set."""
    return lambda reduced: runner(**(smoke if reduced else {}))


def _late(module: str, name: str) -> Callable[..., Any]:
    """``repro.bench.<module>.<name>``, imported when it is first called."""
    return lambda *args: getattr(
        import_module(f"{__package__}.{module}"), name
    )(*args)


#: Every bench, by the one name the CLI, the CI matrix, the payload's
#: ``bench`` field and ``BENCH_<name>.json`` all use.  The reduced sets of
#: the figure and ablation drivers are the ones their checks were written
#: against (the former ``benchmarks/bench_*.py`` suites'); durability,
#: granularity and constraints run smaller still, which their size-relative
#: checks pass on as well.
BENCHES: dict[str, Bench] = {
    "fig6": Bench(baseline.build_fig6, baseline.check_fig6, gate_points),
    "fig7": Bench(baseline.build_fig7, baseline.check_fig7, gate_points),
    "fig8": Bench(
        _sweep(experiments.run_fig8, sensor_counts=(500, 1000, 2000)),
        experiments.check_fig8,
    ),
    "fig9": Bench(
        _sweep(experiments.run_fig9, sensor_counts=(500, 1000, 2000)),
        experiments.check_fig9,
    ),
    "placement": Bench(
        _sweep(experiments.run_placement_ablation, sensors=800, duration=5.0),
        experiments.check_placement,
    ),
    "durability": Bench(
        _sweep(experiments.run_durability_ablation, sensors=30, duration=4.0),
        experiments.check_durability,
    ),
    "granularity": Bench(
        _sweep(experiments.run_granularity_ablation, cows=30),
        experiments.check_granularity,
    ),
    "constraints": Bench(
        _sweep(experiments.run_constraints_ablation, transfers=60),
        experiments.check_constraints,
    ),
    "cattle": Bench(
        _sweep(experiments.run_cattle_scaling, duration=5.0),
        experiments.check_cattle,
    ),
    "chaos": Bench(
        _sweep(
            run_chaos_experiment,
            sensors=100,
            duration=12.0,
            crash_at=4.0,
            lease_seconds=1.5,
            fault_window=4.0,
        ),
        check_chaos,
    ),
    "micro": Bench(baseline.build_micro, baseline.check_micro, gate_points),
    "elastic": Bench(
        _late("elastic", "build_elastic"),
        _late("elastic", "check_elastic"),
        gate_points,
    ),
    "partition": Bench(
        _late("partition", "build_partition"),
        _late("partition", "check_partition"),
        gate_points,
    ),
    "speed": Bench(
        _late("speed", "build_speed"),
        _late("speed", "check_speed"),
        _late("speed", "gate_speed"),
    ),
    "views": Bench(
        _late("views", "build_views"), _late("views", "check_views"), gate_points
    ),
    "tsblocks": Bench(
        _late("tsbench", "build_tsbench"),
        _late("tsbench", "check_tsblocks"),
        _late("tsbench", "gate_tsblocks"),
    ),
    "trace": Bench(
        _late("tracebench", "run_trace_bench"),
        _late("tracebench", "check_trace"),
        render=_late("tracebench", "render_trace"),
    ),
    "profile": Bench(
        _late("profilebench", "run_profile_bench"),
        _late("profilebench", "check_invariants"),
        render=_late("profilebench", "render_profile_bench"),
    ),
    "incident": Bench(
        _late("incidentbench", "run_incident_bench"),
        _late("incidentbench", "check_incident"),
        render=_late("incidentbench", "render_incident"),
    ),
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures on the simulated cluster "
        "and check the invariants of every bench.",
    )
    parser.add_argument(
        "bench",
        choices=[*BENCHES, "all"],
        help="which bench to run ('all': every one of them, in this order)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the bench's reduced parameter set (seconds instead of "
        "minutes): what CI runs and what --check-baseline replays",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="gated benches: write the fresh run's payload as JSON",
    )
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="gated benches: gate the fresh run against a committed "
        "BENCH_<name>.json (by default fails on >10%% throughput drop or "
        ">15%% p99 rise)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="gated benches: run full + smoke sweeps and (re)write the "
        "committed BENCH_<name>.json",
    )
    return parser


def _run_bench(name: str, args: argparse.Namespace) -> int:
    """Run one bench, report it, check it, then serve the baseline flags."""
    bench = BENCHES[name]
    started = time.time()
    # Committing a baseline records both modes: the full sweep (the figure)
    # and the smoke sweep the CI gate replays.
    modes = (False, True) if args.write_baseline else (args.smoke,)
    payloads: dict[str, dict] = {}
    failures: list[str] = []
    try:
        for smoke in modes:
            result = bench.run(smoke)
            if bench.gate is None:
                print(bench.render(result))
            else:
                payloads[result.payload["mode"]] = result.payload
                print(format_payload(result.payload))
            failures += bench.check(result)
    except InvariantError as exc:
        failures += exc.args
    failures = [f"INVARIANT VIOLATED: {violation}" for violation in failures]
    if not failures:
        print(f"  OK: every {name} invariant holds")
        if args.write_baseline:
            write_baseline(args.write_baseline, payloads)
            print(f"  wrote {args.write_baseline}")
        fresh = next(iter(payloads.values()), None)
        if args.json:
            Path(args.json).write_text(
                json.dumps(fresh, indent=2, sort_keys=True) + "\n"
            )
            print(f"  wrote {args.json}")
        if args.check_baseline:
            failures = [
                f"PERF REGRESSION: {regression}"
                for regression in check_against_baseline(
                    fresh, load_baseline(args.check_baseline), bench.gate
                )
            ]
            if not failures:
                print(f"  perf gate passed against {args.check_baseline}")
    for failure in failures:
        print(f"  {failure}")
    print(f"  [wall-clock: {time.time() - started:.1f}s]")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    names = list(BENCHES) if args.bench == "all" else [args.bench]
    if args.json or args.check_baseline or args.write_baseline:
        if args.bench == "all" or BENCHES[args.bench].gate is None:
            gated = [name for name, bench in BENCHES.items() if bench.gate]
            parser.error(
                "--json/--check-baseline/--write-baseline take one gated "
                f"bench: {', '.join(gated)}"
            )
    status = 0
    for name in names:
        status |= _run_bench(name, args)
        if len(names) > 1:
            print()
    return status

