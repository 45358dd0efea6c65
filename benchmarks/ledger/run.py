#!/usr/bin/env python3
"""The performance ledger: one two-clock benchmark of the ``repro`` stack.

Six named workloads, six end-to-end metrics in both clocks (virtual time:
the modelled Orleans/AWS platform; host time: what the simulator costs) and,
with ``--traced``, per-layer attribution.  See README.md beside this file.

Usage (from the repository root; no PYTHONPATH needed)::

    python benchmarks/ledger/run.py                      # all workloads, 5 reps
    python benchmarks/ledger/run.py --workload ingest_wave --reps 3 --traced
    python benchmarks/ledger/run.py --json results/mine.json
    python benchmarks/ledger/run.py --selfcheck          # ~1/20 size, < 30 s
    python benchmarks/ledger/run.py --agree A.json B.json

The benchmark driver's form — one workload, a time budget, one JSON object
as the last line of stdout::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Every (workload, rep) runs in a fresh subprocess, one at a time, reps
interleaved round-robin across workloads.  Host metrics are medians over
reps; virtual metrics come from rep 1 and every later rep must reproduce
them bit-for-bit (``virtual_digest``).  Exit code is non-zero when an audit
fails, a digest differs, or an op fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT_DIR = os.path.join(LEDGER_DIR, "out")

DEFAULT_SEED = 2019
#: Held out: never used while a change is written, only to check its claim.
HELD_OUT_SEED = 7919
DEFAULT_REPS = 5
MIN_REPS = 3
MAX_REPS = 12
#: Untraced reps a driver-form traced run takes as its baseline; the
#: instrumented reps use the rest of the time the run is allowed.
TRACED_BASELINE_REPS = 2
SELFCHECK_SCALE = 0.05
CHILD_TIMEOUT_S = 170


def _fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"ledger: {message}", file=sys.stderr)
    raise SystemExit(code)


if not os.path.isdir(os.path.join(SRC, "repro")):
    _fail(f"the program under test is missing: no {os.path.join('src', 'repro')} "
          f"under {ROOT}")
sys.path.insert(0, SRC)
sys.path.insert(0, LEDGER_DIR)

from perfledger import metrics as catalog  # noqa: E402
from perfledger.attribution import LAYERS  # noqa: E402
from perfledger.stats import quartiles, relative_worsening, spread_share  # noqa: E402

HOST_METRICS = ("setup_s", "host_us_per_op", "host_peak_rss_mb")


# -- BENCHMARK.json ------------------------------------------------------------


def load_benchmark() -> dict:
    try:
        with open(BENCHMARK_JSON) as handle:
            return json.load(handle)
    except OSError as exc:
        _fail(f"cannot read {BENCHMARK_JSON}: {exc}")


# -- one rep in a fresh subprocess ------------------------------------------------


def run_child(workload: str, seed: int, mode: str, scale: float) -> dict:
    """Run one rep in a fresh interpreter and return its result document."""
    spec = json.dumps({"workload": workload, "seed": seed, "mode": mode,
                       "scale": scale})
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", spec],
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        _fail(f"{workload} rep ({mode}) exited with {completed.returncode}", code=3)
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def child_main(spec_json: str) -> None:
    from perfledger.rep import run_rep

    spec = json.loads(spec_json)
    result = run_rep(spec["workload"], spec["seed"], spec["mode"], spec["scale"])
    print(json.dumps(result))


# -- collecting reps ---------------------------------------------------------------


def collect_timed(
    workloads: list[str],
    seed: int,
    scale: float,
    reps: int | None,
    seconds: float | None,
) -> dict[str, list[dict]]:
    """Timed reps, interleaved round-robin across workloads.

    With ``reps`` every workload gets exactly that many.  With ``seconds``
    a workload keeps taking reps while the next one still fits its budget
    of timed-region seconds (at least ``MIN_REPS``): a slower host measures
    fewer reps of the same fixed-size work, never a shorter run.
    """
    taken: dict[str, list[dict]] = {name: [] for name in workloads}
    active = list(workloads)
    while active:
        for name in list(active):
            taken[name].append(run_child(name, seed, "timed", scale))
            done = taken[name]
            if reps is not None:
                finished = len(done) >= reps
            else:
                spent = sum(rep["host"]["raw_load_s"] for rep in done)
                finished = len(done) >= MIN_REPS and (
                    spent + spent / len(done) > seconds or len(done) >= MAX_REPS
                )
            if finished:
                active.remove(name)
    return taken


def collect_traced(name: str, seed: int, scale: float) -> dict[str, dict]:
    """The instrumented reps of one workload, outside the timed reps."""
    traced = {"profile": run_child(name, seed, "profile", scale)}
    if name != "kernel_floor":
        traced["tracer"] = run_child(name, seed, "tracer", scale)
    if name == "ingest_wave":
        traced["attached"] = run_child(name, seed, "attached", scale)
        traced["ladder"] = run_child(name, seed, "ladder", scale)
    return traced


# -- reducing reps to metrics -----------------------------------------------------


def _summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "reps": values}


def reduce_workload(name: str, timed: list[dict], traced: dict | None) -> dict:
    """One workload's result document from its reps."""
    first = timed[0]
    problems = []
    for index, rep in enumerate(timed):
        for audit in rep["audits"]:
            if not audit["ok"]:
                problems.append(f"rep {index + 1} audit failed: {audit['name']} "
                                f"({audit['detail']})")
        if rep["virtual_digest"] != first["virtual_digest"]:
            problems.append(f"rep {index + 1} virtual_digest differs from rep 1")
    end_to_end = {
        metric: _summary([rep["host"][metric] for rep in timed])
        for metric in HOST_METRICS
    }
    for metric in catalog.END_TO_END:
        if metric.name not in end_to_end:
            end_to_end[metric.name] = {"value": first["virtual"][metric.name]}
    attempted = first["ops"]["attempted"]
    failed = first["ops"]["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    doc = {
        "end_to_end": end_to_end,
        # What normalisation started from: raw wall times and the host speed
        # (calibration-loop Mops) seen inside each region, per rep.
        "host_raw": {
            key: [rep["host"][key] for rep in timed]
            for key in ("raw_setup_s", "raw_host_us_per_op", "setup_mops", "load_mops")
        },
        "info": first["info"],
        "attempted": attempted,
        "failed": failed,
        "virtual_digest": first["virtual_digest"],
        "audits": first["audits"],
        "reps": len(timed),
        "problems": problems,
        "seed": first["seed"],
    }
    if traced is not None:
        doc["per_layer"], doc["trace"] = reduce_traced(
            first, end_to_end["host_us_per_op"]["value"],
            statistics.median(rep["host"]["raw_load_s"] for rep in timed), traced,
        )
        profile_rep = traced["profile"]
        if profile_rep["virtual_digest"] != first["virtual_digest"]:
            problems.append("profiled rep's virtual_digest differs: profiling "
                            "changed the simulation")
        for key, rep in traced.items():
            for audit in rep.get("audits", ()):
                if not audit["ok"]:
                    problems.append(f"{key} rep audit failed: {audit['name']}")
    return doc


def reduce_traced(
    first: dict, host_us_per_op: float, raw_load_s: float, traced: dict
) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and the trace tables.

    ``host_us_per_op`` and ``raw_load_s`` are the untraced medians: profile
    shares are scaled by the first, the profiler's slowdown is taken against
    the second (raw wall on both sides; the profiled rep is not normalised).
    """
    ops = first["info"]["ops"]
    values: dict[str, float] = dict(first["counters"])
    end_to_end = {metric.name for metric in catalog.END_TO_END}
    values.update(
        (name, value) for name, value in first["virtual"].items()
        if name not in end_to_end
    )
    values["failed_op_share"] = first["ops"]["failed"] / first["ops"]["attempted"]

    profile = traced["profile"]["profile"]
    total = profile["total_s"]
    shares = {layer: profile["time_s"][layer] / total for layer in (*LAYERS, "other")}
    for layer, share in shares.items():
        values[f"{layer}.host_us_per_op"] = share * host_us_per_op
    for layer in LAYERS:
        values[f"{layer}.calls_per_op"] = profile["calls"][layer] / ops
    # Entry points arrive as profiled-time share per unit of work; times the
    # untraced timed region they are on the same scale as host_us_per_op.
    for metric, share_per_unit in profile["entry_points"].items():
        values[metric] = share_per_unit * host_us_per_op * ops
    overhead = traced["profile"]["host"]["raw_load_s"] / raw_load_s
    values["trace.overhead_x"] = overhead
    if "tracer" in traced:
        breakdown = traced["tracer"]["ack_breakdown"]
        for name in ("runtime.ack_queue_ms", "runtime.ack_cpu_ms",
                     "net.ack_network_ms", "storage.ack_storage_ms",
                     "obs.spans_per_op"):
            values[name] = breakdown[name]
    tables = {"layer_share": shares, "overhead_x": overhead,
              "spans": traced["profile"]["spans"]}
    if "attached" in traced:
        values["obs.attached_overhead_x"] = (
            traced["attached"]["host"]["host_us_per_op"] / host_us_per_op
        )
    if "ladder" in traced:
        ladder = traced["ladder"]["ladder"]
        values["sustainable_ops_per_sim_s"] = ladder["sustainable_ops_per_sim_s"]
        tables["rate_ladder"] = ladder["steps"]
    return values, tables


# -- output ---------------------------------------------------------------------


def contract_line(doc: dict, benchmark: dict, trace: bool) -> dict:
    """The driver's result object for one workload."""
    metrics = {}
    if trace:
        for spec in benchmark["per_layer"]:
            value = doc["per_layer"].get(spec["name"], 0.0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in benchmark["end_to_end"]:
            metrics[spec["name"]] = {
                "value": doc["end_to_end"][spec["name"]]["value"],
                "unit": spec["unit"],
            }
    return {
        "correct": not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def print_report(results: dict, out=sys.stdout) -> None:
    for name, doc in results["workloads"].items():
        info = doc["info"]
        print(f"\n== {name}  (seed {doc['seed']}, {doc['reps']} reps, "
              f"{info['ops']} ops, {info['points']} points, "
              f"{info['sim_s']:.3f} sim_s, samples {info['samples']})", file=out)
        print(f"   virtual_digest {doc['virtual_digest']}", file=out)
        for metric in catalog.END_TO_END:
            row = doc["end_to_end"][metric.name]
            spread = ""
            if "reps" in row:
                spread = (f"   [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                          f"iqr/median {spread_share(row['reps']):.2%}]")
            print(f"   {metric.name:<34} {row['value']:>14.6g} {metric.unit:<8}"
                  f" ({metric.clock}){spread}", file=out)
        print(f"   {'failed_op_share':<34} "
              f"{doc['failed'] / doc['attempted']:>14.6g} share    (exact)", file=out)
        for metric in catalog.PER_LAYER:
            if ("per_layer" not in doc or name not in metric.workloads
                    or metric.name == "failed_op_share"):
                continue
            value = doc["per_layer"].get(metric.name)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"   {metric.name:<34} {shown:>14} {metric.unit:<8}"
                  f" ({metric.clock})", file=out)
        if "trace" in doc:
            shares = ", ".join(f"{layer} {share:.1%}"
                               for layer, share in doc["trace"]["layer_share"].items())
            print(f"   profiled self time: {shares}", file=out)
        failed_audits = [a for a in doc["audits"] if not a["ok"]]
        print(f"   audits: {len(doc['audits']) - len(failed_audits)} of "
              f"{len(doc['audits'])} passed", file=out)
        for problem in doc["problems"]:
            print(f"   PROBLEM: {problem}", file=out)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


# -- the measurement entry point ---------------------------------------------------


def measure(
    workloads: list[str],
    seed: int,
    *,
    scale: float = 1.0,
    reps: int | None = None,
    seconds: float | None = None,
    traced: bool = False,
) -> dict:
    timed = collect_timed(workloads, seed, scale, reps, seconds)
    results = {"environment": environment(), "seed": seed, "scale": scale,
               "workloads": {}}
    for name in workloads:
        extra = collect_traced(name, seed, scale) if traced else None
        results["workloads"][name] = reduce_workload(name, timed[name], extra)
    return results


def trace_document(results: dict) -> dict:
    """``ledger-trace.json``: driver spans plus the attribution tables."""
    return {
        "environment": results["environment"],
        "seed": results["seed"],
        "workloads": {
            name: doc["trace"] for name, doc in results["workloads"].items()
            if "trace" in doc
        },
    }


# -- --selfcheck ---------------------------------------------------------------------


def selfcheck(benchmark: dict) -> int:
    """Every workload at ~1/20 size: metrics emitted, audits pass, digests equal."""
    started = time.perf_counter()
    problems: list[str] = []
    for section, table in (("end_to_end", catalog.END_TO_END),
                           ("per_layer", catalog.PER_LAYER)):
        listed = {(m["name"], m["unit"], m["better"]) for m in benchmark[section]}
        known = {(m.name, m.unit, m.better) for m in table}
        for name, unit, better in sorted(listed ^ known):
            problems.append(f"BENCHMARK.json and perfledger.metrics disagree on "
                            f"{section} metric {name} [{unit}, {better}]")
    names = [w["name"] for w in benchmark["workloads"]]
    if tuple(names) != catalog.ALL:
        problems.append(f"BENCHMARK.json workloads {names} != {list(catalog.ALL)}")
    results = measure(list(catalog.ALL), DEFAULT_SEED, scale=SELFCHECK_SCALE,
                      reps=2, traced=True)
    for name, doc in results["workloads"].items():
        problems.extend(f"{name}: {problem}" for problem in doc["problems"])
        for metric in catalog.END_TO_END:
            value = doc["end_to_end"].get(metric.name, {}).get("value")
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{name}: end-to-end metric {metric.name} = {value!r}")
        for metric in catalog.PER_LAYER:
            if name in metric.workloads and not isinstance(
                doc["per_layer"].get(metric.name), (int, float)
            ):
                problems.append(f"{name}: per-layer metric {metric.name} not emitted")
        for trace in (False, True):
            line = contract_line(doc, benchmark, trace)
            wanted = benchmark["per_layer" if trace else "end_to_end"]
            if [m["name"] for m in wanted] != list(line["metrics"]):
                problems.append(f"{name}: --trace {int(trace)} line misses metrics")
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFCHECK PROBLEM: {problem}")
    print(f"selfcheck: {len(catalog.ALL)} workloads x 2 reps + traced at scale "
          f"{SELFCHECK_SCALE}, {elapsed:.1f} s, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


# -- --agree ----------------------------------------------------------------------


def agree(path_a: str, path_b: str, benchmark: dict) -> int:
    """Compare two result sets metric by metric against BENCHMARK.json's bounds."""
    with open(path_a) as handle:
        first = json.load(handle)
    with open(path_b) as handle:
        second = json.load(handle)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    disagreements = 0
    print(f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14}{'B vs A':>10}"
          f"{'bound':>8}  verdict")
    for name in first["workloads"]:
        doc_a, doc_b = first["workloads"][name], second["workloads"].get(name)
        if doc_b is None:
            print(f"{name:<18} missing from {path_b}")
            disagreements += 1
            continue
        same_seed = doc_a["seed"] == doc_b["seed"]
        for metric in catalog.END_TO_END:
            a = doc_a["end_to_end"][metric.name]["value"]
            b = doc_b["end_to_end"][metric.name]["value"]
            worse = max(relative_worsening(a, b, metric.better),
                        relative_worsening(b, a, metric.better))
            bound = bounds[metric.name]["bound"]
            if metric.clock != "host" and same_seed:
                ok, rule = a == b, "exact"
            else:
                ok, rule = worse <= bound, f"{bound:.2f}"
            disagreements += not ok
            print(f"{name:<18}{metric.name:<20}{a:>14.6g}{b:>14.6g}"
                  f"{(b - a) / a:>+10.2%}{rule:>8}  {'agree' if ok else 'DISAGREE'}")
        if same_seed:
            ok = doc_a["virtual_digest"] == doc_b["virtual_digest"]
            disagreements += not ok
            print(f"{name:<18}{'virtual_digest':<20}{doc_a['virtual_digest'][:12]:>14}"
                  f"{doc_b['virtual_digest'][:12]:>14}{'':>10}{'exact':>8}  "
                  f"{'agree' if ok else 'DISAGREE'}")
    print(f"agree: {disagreements} disagreement(s) between {path_a} and {path_b}")
    return 1 if disagreements else 0


# -- CLI --------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=catalog.ALL,
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed for claim checks: {HELD_OUT_SEED})")
    parser.add_argument("--reps", type=int, help=f"timed reps per workload "
                        f"(default {DEFAULT_REPS}, or as many as fit --seconds)")
    parser.add_argument("--seconds", type=float,
                        help="timed-region budget per workload instead of --reps")
    parser.add_argument("--traced", action="store_true",
                        help="also run the instrumented reps: per-layer metrics, "
                             "ledger-trace.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print one JSON result object last; "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--json", metavar="OUT", help="write the full result JSON")
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR,
                        help="where ledger-trace.json goes (default: %(default)s)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args.child)
        return 0
    benchmark = load_benchmark()
    if args.agree:
        return agree(*args.agree, benchmark)
    if args.selfcheck:
        return selfcheck(benchmark)
    workloads = args.workload or list(catalog.ALL)
    driver_form = args.trace is not None
    if driver_form and len(workloads) != 1:
        _fail("--trace takes exactly one --workload")
    traced = args.traced or args.trace == 1
    reps, seconds = args.reps, args.seconds
    if reps is None and seconds is None:
        reps = DEFAULT_REPS
    if args.trace == 1 and args.reps is None:
        reps, seconds = TRACED_BASELINE_REPS, None
    results = measure(workloads, args.seed, reps=reps, seconds=seconds, traced=traced)
    print_report(results)
    if args.json:
        write_json(args.json, results)
    if traced:
        write_json(os.path.join(args.out_dir, "ledger-trace.json"),
                   trace_document(results))
    broken = any(doc["problems"] for doc in results["workloads"].values())
    if driver_form:
        doc = results["workloads"][workloads[0]]
        print(json.dumps(contract_line(doc, benchmark, trace=args.trace == 1)))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
