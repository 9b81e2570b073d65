"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --out spread.json

Runs ``run.py --trace 0`` once per seed on every workload (or those
given with ``--workload``), each time with ``BENCHMARK.json``'s
``run_seconds``, and reports per metric the median of the per-seed
values and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread is steady when it is below a third of the metric's
bound; ``setup_s`` is exempt from the spread test but its median is
compared like every other.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` to a list of seeds."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def spread_of(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, Any] = {"seeds": parse_seeds(args.seeds),
                              "run_seconds": spec["run_seconds"],
                              "workloads": {}}
    failures = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in report["seeds"]:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            if done.returncode != 0 or not result["correct"]:
                failures += 1
                print(f"{workload} seed {seed}: failed\n{done.stderr}",
                      file=sys.stderr)
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds),
                flush=True)
        rows = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            row = spread_of(series)
            row.update(values=series, bound=bounds[name],
                       steady=(name == "setup_s"
                               or row["spread"] < bounds[name] / 3))
            rows[name] = row
            print(f"  {workload:22s} {name:20s} median {row['median']:.4g}"
                  f"  spread {row['spread']:.3f}"
                  f"  bound {bounds[name]}"
                  f"  {'steady' if row['steady'] else 'UNSTEADY'}")
        report["workloads"][workload] = rows
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
