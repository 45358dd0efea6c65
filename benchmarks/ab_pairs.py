#!/usr/bin/env python3
"""Interleaved A/B pairs of two checkouts, each through its own ledger.

The choosing-metrics §8 procedure every ROADMAP item-1 claim needs: run
``benchmarks/ledger/run.py`` (driver form, ``BENCHMARK.json``'s run length)
in the parent and in the change checkout alternately, order flipped every
pair, then print per end-to-end metric each side's median and quartiles, the
pairs the change won / lost / tied, a verdict against the metric's
``BENCHMARK.json`` bound, and whether the virtual-clock metrics are
bit-identical across every run.  When the two sides' ``virtual_digest``s
differ, one ``--trace 1`` run per side follows and every per-layer exact
counter that differs is printed by name with both values, so a moved digest
says what moved.

The verdict is ``ok``, ``WORSE`` (the change's median is worse than the
parent's by more than the bound) or ``unresolved`` (the parent's quartile
spread exceeds the bound and not every change run beats every parent run,
so the pairs cannot tell a worsening within the bound from noise).  ``--workload`` repeats (``all`` = every
workload the parent's ``BENCHMARK.json`` declares); each gets its own table,
printed as soon as its pairs are done.

    python benchmarks/ab_pairs.py --parent /root/scratch/parent --change . \\
        --workload durable_scaleout --seed 2019 --pairs 10
    python benchmarks/ab_pairs.py --parent /root/scratch/parent --change . \\
        --workload all --seed 7919 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))
from perfledger.metrics import BY_NAME  # noqa: E402
from perfledger.stats import quartiles, relative_worsening, spread_share  # noqa: E402

VIRTUAL = ("ops_per_sim_s", "ack_p50_ms", "ack_p99_ms")
ROW = "{:<18}{:<30}{:<30}{:>8}  {:<15}{}"


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, str]:
    """One driver-form ledger run in ``checkout``.

    Returns metric -> value (end-to-end with ``trace`` 0, per-layer with 1)
    and the run's ``virtual_digest``.
    """
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        command, cwd=checkout, check=True, capture_output=True, text=True
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: incorrect or failed operations: {result}")
    digest = next(
        line.split()[1] for line in lines if line.split()[:1] == ["virtual_digest"]
    )
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values, digest


def moved_counters(parent: dict, change: dict) -> list[tuple[str, float, float]]:
    """``(name, parent, change)`` of every exact metric whose value differs."""
    return [
        (name, parent[name], change[name])
        for name in parent
        if name in change
        and BY_NAME[name].clock == "exact"
        and parent[name] != change[name]
    ]


def spread(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(
    parent: list[float], change: list[float], bound: float, better: str
) -> str:
    """``ok``, ``WORSE`` or ``unresolved`` for one metric against its bound."""
    if better == "lower":
        clean_win = max(change) < min(parent)
    else:
        clean_win = min(change) > max(parent)
    if spread_share(parent) > bound and not clean_win:
        return "unresolved"
    worse = relative_worsening(
        statistics.median(parent), statistics.median(change), better
    )
    return "WORSE" if worse > bound else "ok"


def compare(
    sides: dict[str, Path], declared: dict, workload: str, seed: int, pairs: int
) -> None:
    """Run ``pairs`` alternating pairs of one workload and print its table."""
    seconds = declared["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    digests: dict[str, set[str]] = {"parent": set(), "change": set()}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            values, digest = run_once(sides[side], workload, seed, seconds)
            runs[side].append(values)
            digests[side].add(digest)
        print(f"{workload}: pair {pair + 1}/{pairs} done", file=sys.stderr)

    print(f"{workload} seed={seed} pairs={pairs}: median [q1, q3]")
    print(
        ROW.format("metric", "parent", "change", "delta", "won/lost/tied", "verdict")
    )
    for metric in declared["end_to_end"]:
        name, sign = metric["name"], -1 if metric["better"] == "lower" else 1
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        base = statistics.median(parent)
        delta = (statistics.median(change) - base) / base if base else 0.0
        tally = f"{won}/{lost}/{pairs - won - lost}"
        bound = metric["bound"]
        judged = f"{verdict(parent, change, bound, metric['better'])} ({bound:.0%})"
        print(
            ROW.format(
                name, spread(parent), spread(change), f"{delta:+.1%}", tally, judged
            )
        )
    identical = all(
        len({run[name] for side in runs.values() for run in side}) == 1
        for name in VIRTUAL
    )
    print(f"virtual metrics bit-identical across all runs: {identical}", flush=True)
    if digests["parent"] == digests["change"]:
        print(f"virtual_digest unchanged: {min(digests['parent'])[:16]}", flush=True)
        return
    print(
        f"virtual_digest moved: {sorted(digests['parent'])} -> "
        f"{sorted(digests['change'])}; exact per-layer counters that differ:"
    )
    traced = {
        side: run_once(checkout, workload, seed, seconds, trace=1)[0]
        for side, checkout in sides.items()
    }
    for name, before, after in moved_counters(traced["parent"], traced["change"]):
        print(f"  {name:<34} {before:.6g} -> {after:.6g}")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument(
        "--workload",
        action="append",
        required=True,
        help="repeatable; 'all' = every declared workload",
    )
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload
    if "all" in workloads:
        workloads = [workload["name"] for workload in declared["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in workloads:
        compare(sides, declared, workload, args.seed, args.pairs)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
