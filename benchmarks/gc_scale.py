#!/usr/bin/env python3
"""What the fig7 deployment costs the host as it scales: objects, collections.

For each scale factor and each horizon, a fresh process builds the Figure 7
deployment (2,100 sensors per m5.xlarge silo, fast path; ``build_deployment``
and ``provision`` from ``repro.bench``), runs its insert load (``run_load``)
for that many virtual seconds and prints one row:

- ``SF`` and ``secs``: the scale factor and the horizon in virtual seconds;
- ``activations`` resident after provisioning;
- ``objs/act``: GC-tracked objects that building and provisioning the
  deployment added (counted after a full collection), per activation;
- ``gen0`` / ``gen1`` / ``gen2``: collections of each generation during the
  load, with their seconds (timed through ``gc.callbacks``);
- ``load_s`` and ``us/req``: host seconds of the load, and per insert;
- ``peak_mb``: the point's peak RSS (one process per point, so points do
  not inherit each other's high-water mark);
- ``x_short``: ``us/req`` over that of the same scale factor's shortest
  horizon, so flat host cost over virtual time reads as 1.00 on every row.

    python benchmarks/gc_scale.py --scale 1 8 --seconds 6
    python benchmarks/gc_scale.py --scale 1 --seconds 6 30 120
    python benchmarks/gc_scale.py --smoke          # SF 1 for 2 virtual s
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

from repro.bench import M5_XLARGE, LoadConfig, build_deployment, provision  # noqa: E402
from repro.bench.experiments import FIG7_SENSORS_PER_SERVER  # noqa: E402
from repro.bench.workload import run_load  # noqa: E402

HEADER = (
    f"{'SF':>3} {'secs':>5} {'activations':>11} {'objs/act':>8} {'gen0':>12} "
    f"{'gen1':>12} {'gen2':>12} {'load_s':>7} {'us/req':>7} {'peak_mb':>8} "
    f"{'x_short':>7}"
)


class CollectionClock:
    """Counts and times collections per generation while installed."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.counts[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started


def measure_point(factor: int, seconds: float, seed: int) -> dict:
    """Build, provision and load one scale factor; return its measurements."""
    sensors = FIG7_SENSORS_PER_SERVER * factor
    gc.collect()
    floor = len(gc.get_objects())
    deployment = build_deployment([M5_XLARGE] * factor, seed=seed)
    scheduler = deployment.scheduler
    scheduler.run_until_complete(provision(deployment, sensors))
    gc.collect()
    activations = sum(
        len(silo.activations()) for silo in deployment.runtime.silos()
    )
    objects = len(gc.get_objects()) - floor
    clock = CollectionClock()
    load = LoadConfig(sensors=sensors, duration=seconds)
    gc.callbacks.append(clock)
    try:
        started = time.perf_counter()
        result = scheduler.run_until_complete(run_load(deployment, load))
        load_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    requests = result.recorder.count("insert")
    return {
        "factor": factor,
        "seconds": seconds,
        "activations": activations,
        "objects_per_activation": objects / activations,
        "collections": clock.counts,
        "collection_s": clock.seconds,
        "load_s": load_s,
        "us_per_request": load_s / requests * 1e6 if requests else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def format_row(point: dict, shortest: dict) -> str:
    """One point's row; ``shortest`` is its scale factor's shortest horizon."""
    generations = [
        f"{count} {secs:.2f}s"
        for count, secs in zip(point["collections"], point["collection_s"])
    ]
    base = shortest["us_per_request"]
    ratio = point["us_per_request"] / base if base else 0.0
    return (
        f"{point['factor']:>3} {point['seconds']:>5g} {point['activations']:>11} "
        f"{point['objects_per_activation']:>8.1f} "
        + " ".join(f"{text:>12}" for text in generations)
        + f" {point['load_s']:>7.2f} {point['us_per_request']:>7.1f}"
        f" {point['peak_rss_mb']:>8.1f} {ratio:>7.2f}"
    )


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, nargs="+", default=[1, 8])
    parser.add_argument(
        "--seconds", type=float, nargs="+", default=[6.0],
        help="virtual seconds of load; several give one row per horizon",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="SF 1 for 2 s")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.seconds = [1], [2.0]
    args.seconds = sorted(args.seconds)
    return args


def main() -> None:
    args = parse_args()
    horizons = args.seconds
    print(
        f"fig7 deployment, {', '.join(f'{s:g}' for s in horizons)} virtual s, "
        f"seed {args.seed}"
    )
    print(HEADER, flush=True)
    spawn = multiprocessing.get_context("spawn")
    for factor in args.scale:
        shortest = None
        for seconds in horizons:
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                point = pool.submit(measure_point, factor, seconds, args.seed)
                point = point.result()
            shortest = shortest or point
            print(format_row(point, shortest), flush=True)


if __name__ == "__main__":
    main()
