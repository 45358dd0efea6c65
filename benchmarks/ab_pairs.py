#!/usr/bin/env python3
"""Interleaved A/B pairs of two checkouts, each through its own ledger.

The choosing-metrics §8 procedure every ROADMAP item-1 claim needs: run
``benchmarks/ledger/run.py`` (driver form, ``BENCHMARK.json``'s run length)
in the parent and in the change checkout alternately, order flipped every
pair, then print per end-to-end metric each side's median and quartiles, the
pairs the change won / lost / tied, and whether the virtual-clock metrics are
bit-identical across every run.  ``--workload`` repeats (``all`` = every
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

VIRTUAL = ("ops_per_sim_s", "ack_p50_ms", "ack_p99_ms")
ROW = "{:<18}{:<30}{:<30}{:>8}  {}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One driver-form ledger run in ``checkout``; returns metric -> value."""
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, check=True, capture_output=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: incorrect or failed operations: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(
    sides: dict[str, Path], declared: dict, workload: str, seed: int, pairs: int
) -> None:
    """Run ``pairs`` alternating pairs of one workload and print its table."""
    seconds = declared["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, seconds))
        print(f"{workload}: pair {pair + 1}/{pairs} done", file=sys.stderr)

    print(f"{workload} seed={seed} pairs={pairs}: median [q1, q3]")
    print(ROW.format("metric", "parent", "change", "delta", "won/lost/tied"))
    for metric in declared["end_to_end"]:
        name, sign = metric["name"], -1 if metric["better"] == "lower" else 1
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        base = statistics.median(parent)
        delta = (statistics.median(change) - base) / base if base else 0.0
        tally = f"{won}/{lost}/{pairs - won - lost}"
        print(ROW.format(name, spread(parent), spread(change), f"{delta:+.1%}", tally))
    identical = all(
        len({run[name] for side in runs.values() for run in side}) == 1
        for name in VIRTUAL
    )
    print(f"virtual metrics bit-identical across all runs: {identical}", flush=True)


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
