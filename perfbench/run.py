"""Benchmark runner: plan → simulate pipeline runs, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-quiet-1e6 --seed 1 \\
        --seconds 40 --trace 0

Each measured run is one fresh ``perfbench/worker.py`` process (BLAS
and OpenMP threads pinned to one), started one at a time until the
next run would end past ``--seconds``.  Run ``i`` of an invocation
draws its traffic from ``(--seed, i)``, so the reported medians are
over several inputs of the workload, the same ones for the same seed.
``--trace 0`` reports the end-to-end metrics as medians over the runs;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics, medians over the traced runs, plus the tracing
overhead.  Every run checks its own output; an exception or failed
check counts as a failed operation.

Before the result, one ``{"record": ...}`` line carries the run
record: host fingerprint, seed, every run, and each metric's median,
quartiles, sample count and basis (measured, counted or computed).
``--record PATH`` also writes it to a file.  The last line of standard
output is the result object::

    {"correct": true, "attempted": 7, "failed": 0,
     "metrics": {"pipeline_s": {"value": 2.91, "unit": "s"}, ...}}

The benchmark needs the repository's ``src/repro`` package next to
this directory; without it the runner exits with status 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Hard ceiling on one runner invocation, in seconds; no run is
#: started that could end past it.
WALL_LIMIT_S = 170.0
#: Set-up samples per invocation: runs that stop after set-up top
#: up the set-up times of the measured runs to this count.
SETUP_SAMPLES = 8
#: Perceived freshness is the median over the runs of this many
#: traffic draws (``sample`` 0, 1, ...), not over every run.
COUNTED_SAMPLES = 5
#: Thread pinning applied to every run.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
#: Program switches cleared so every run starts from the defaults.
CLEARED_ENV = ("REPRO_TELEMETRY", "REPRO_CONTRACTS",
               "REPRO_TELEMETRY_MAX_ELEMENTS")

#: End-to-end metrics: name → (unit, basis).
END_TO_END = {
    "setup_s": ("s", "measured"),
    "pipeline_s": ("s", "measured"),
    "sim_events_per_s": ("1/s", "measured"),
    "peak_rss_mb": ("MB", "measured"),
    "perceived_freshness": ("fraction", "counted"),
}
#: Per-layer metrics: name → (unit, basis).
PER_LAYER = {
    "core.plan_s": ("s", "measured"),
    "core.plan_calls": ("count", "counted"),
    "numerics.waterfill_iterations": ("count", "counted"),
    "numerics.bracket_expansions": ("count", "counted"),
    "core.kkt_rel_residual": ("ratio", "computed"),
    "core.budget_slack": ("ratio", "computed"),
    "sim.generate_s": ("s", "measured"),
    "sim.generate_ns_per_event": ("ns", "measured"),
    "sim.events": ("count", "counted"),
    "sim.updates": ("count", "counted"),
    "sim.syncs": ("count", "counted"),
    "sim.accesses": ("count", "counted"),
    "sim.tape_bytes": ("B", "computed"),
    "sim.replay_s": ("s", "measured"),
    "sim.replay_ns_per_event": ("ns", "measured"),
    "sim.useful_sync_ratio": ("ratio", "counted"),
    "sim.pf_gap": ("fraction", "computed"),
    "sim.engine": ("code", "counted"),
    "faults.resolve_s": ("s", "measured"),
    "faults.attempted_polls": ("count", "counted"),
    "faults.failed_polls": ("count", "counted"),
    "faults.retries": ("count", "counted"),
    "faults.denied_polls": ("count", "counted"),
    "faults.success_ratio": ("ratio", "counted"),
    "runtime.manager_self_s": ("s", "measured"),
    "runtime.replans": ("count", "counted"),
    "runtime.window_rollbacks": ("count", "counted"),
    "runtime.simulated_periods": ("count", "counted"),
    "runtime.useful_period_ratio": ("ratio", "counted"),
    "obs.trace_overhead": ("ratio", "measured"),
}


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's runs."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def host_fingerprint() -> dict[str, Any]:
    """Where the numbers were measured."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy_version, "thread_env": THREAD_ENV}


def child_env() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items()
           if name not in CLEARED_ENV}
    env.update(THREAD_ENV)
    return env


def launch(config: dict[str, Any], timeout: float) -> dict[str, Any]:
    """Run one worker process to completion and parse its record."""
    config = dict(config, spawn_monotonic=time.monotonic())
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(config)],
            capture_output=True, text=True, timeout=timeout,
            env=child_env(), cwd=str(ROOT), check=False)
    except subprocess.TimeoutExpired:
        record = {"ok": False,
                  "failures": [f"run exceeded {timeout:.0f} s"]}
    else:
        lines = done.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"ok": False, "failures": [
                f"worker exited {done.returncode}: "
                f"{done.stderr.strip()[-2000:]}"]}
        if done.returncode != 0:
            record["ok"] = False
    record["traced"] = bool(config.get("traced"))
    record["sample"] = int(config.get("sample", 0))
    record["setup_only"] = bool(config.get("setup_only"))
    record["wall_s"] = time.perf_counter() - started
    return record


def measure(args: argparse.Namespace) -> list[dict[str, Any]]:
    """Launch runs until the next one would overrun ``--seconds``.

    Then top up the set-up samples with set-up-only runs, which are
    not pipeline operations and count neither as attempted nor as
    failed unless they fail.
    """
    base = {"workload": args.workload, "seed": args.seed}
    if args.elements:
        base["elements"] = args.elements
    unit = [False, True] if args.trace else [False]
    records: list[dict[str, Any]] = []
    unit_walls: list[float] = []
    start = time.perf_counter()
    for sample in itertools.count():
        unit_start = time.perf_counter()
        for traced in unit:
            remaining = WALL_LIMIT_S - (time.perf_counter() - start)
            records.append(launch(dict(base, sample=sample,
                                       traced=traced),
                                  timeout=max(remaining, 1.0)))
        unit_walls.append(time.perf_counter() - unit_start)
        elapsed = time.perf_counter() - start
        projected = elapsed + max(unit_walls)
        if projected > args.seconds or projected > WALL_LIMIT_S:
            break
    top_up = 0 if args.trace else SETUP_SAMPLES - len(records)
    for _ in range(top_up):
        remaining = WALL_LIMIT_S - (time.perf_counter() - start)
        if remaining < 10.0:
            break
        records.append(launch(dict(base, setup_only=True),
                              timeout=remaining))
    return records


def end_to_end(plain: list[dict[str, Any]], setups: list[dict[str, Any]]
               ) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["setup_s"] = [run["setup_s"] for run in setups]
    for run in plain:
        q = run["quantities"]
        samples["pipeline_s"].append(run["pipeline_s"])
        samples["sim_events_per_s"].append(q["events"]
                                           / run["sim_call_s"])
        samples["peak_rss_mb"].append(run["peak_rss_mb"])
    # A fixed set of traffic draws, so the value repeats for a seed
    # however many runs fit in --seconds.
    counted = [run for run in plain
               if run["sample"] < COUNTED_SAMPLES] or plain
    samples["perceived_freshness"] = [
        run["quantities"]["perceived_freshness"] for run in counted]
    return samples


def per_layer(plain: list[dict[str, Any]], traced: list[dict[str, Any]]
              ) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    # Times are medians over the traced runs; counts come from the
    # first traced run alone, so they repeat exactly for a seed.
    first = min(traced, key=lambda run: run["sample"])
    for run in traced:
        for name, value in run["layer_metrics"].items():
            if PER_LAYER[name][1] == "measured" or run is first:
                samples[name].append(float(value))
    untraced = statistics.median(run["pipeline_s"] for run in plain)
    samples["obs.trace_overhead"] = [
        statistics.median(run["pipeline_s"] for run in traced)
        / untraced]
    return samples


def attribution(plain: list[dict[str, Any]],
                traced: list[dict[str, Any]]) -> dict[str, Any]:
    """Layer self times of the median traced run against pipeline_s."""
    ordered = sorted(traced, key=lambda run: run["pipeline_s"])
    median_run = ordered[(len(ordered) - 1) // 2]
    layers = dict(median_run["layers"])
    traced_s = layers.pop("pipeline_traced_s")
    untraced_s = statistics.median(run["pipeline_s"] for run in plain)
    return {"layers_self_s": layers,
            "layers_sum_s": sum(layers.values()),
            "pipeline_traced_s": traced_s,
            "pipeline_untraced_s": untraced_s,
            "layers_sum_over_untraced": sum(layers.values())
            / untraced_s,
            "outside_layers_share": layers.get("bench", 0.0)
            / traced_s,
            "spans": median_run["spans"]}


def run_summary(run: dict[str, Any]) -> dict[str, Any]:
    keys = ("sample", "traced", "setup_only", "ok", "failures", "wall_s",
            "setup_s", "pipeline_s", "sim_call_s", "peak_rss_mb",
            "quantities")
    return {key: run[key] for key in keys if key in run}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--elements", type=int, default=None,
                        help="override the catalog size (self-tests)")
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the run record to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from "
              "a repository checkout", file=sys.stderr)
        return 2

    runs = measure(args)
    ok = [run for run in runs if run["ok"]]
    plain = [run for run in ok
             if not run["traced"] and not run["setup_only"]]
    traced = [run for run in ok if run["traced"]]
    setups = [run for run in ok if not run["traced"]]
    failed = len(runs) - len(ok)
    attempted = sum(1 for run in runs
                    if not run["setup_only"] or not run["ok"])
    for run in runs:
        if not run["ok"]:
            print(f"perfbench: failed run: {run['failures']}",
                  file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1

    if args.trace:
        samples, units = per_layer(plain, traced), PER_LAYER
    else:
        samples, units = end_to_end(plain, setups), END_TO_END
    stats = {name: dict(summarize(values), unit=units[name][0],
                        basis=units[name][1])
             for name, values in samples.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elements": args.elements, "host": host_fingerprint(),
              "metrics": stats,
              "runs": [run_summary(run) for run in runs]}
    if args.trace:
        record["attribution"] = attribution(plain, traced)
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n",
                               encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": stat["value"], "unit": stat["unit"]}
                    for name, stat in stats.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
