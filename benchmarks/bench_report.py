"""The one-command reproduction report, as a benchmark.

Running the benchmark harness leaves a current REPORT.md at the repo
root — the document a reviewer reads next to the paper — and asserts
that every section passes its claim checks.  A second bench drives
the exact solver across problem sizes with telemetry on and writes
``benchmarks/results/BENCH_solver.json``: the machine-readable record
(outer iterations, full inversion passes, wall time vs N) that CI and
``repro obs diff`` compare without parsing prose.  Its pass-count
bound is deterministic, so CI gates on it; wall times are recorded
only.

    PYTHONPATH=src python -m pytest benchmarks/bench_report.py -k solver
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.report import write_report
from repro.core.solver import solve_core_problem
from repro.obs import registry as obs
from repro.workloads.presets import ExperimentSetup, build_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

SOLVER_SIZES = (1_000, 10_000, 100_000, 1_000_000)
#: Most full inversion passes a cold exact solve may take on these
#: catalogs (deterministic: the pass count depends on no clock).
MAX_COLD_PASSES = 12


def test_reproduction_report(benchmark):
    sections = benchmark.pedantic(
        lambda: write_report(REPO_ROOT / "REPORT.md", quick=True),
        rounds=1, iterations=1)
    failures = [section.title for section in sections
                if not section.passed]
    assert not failures, f"report sections failed: {failures}"
    assert (REPO_ROOT / "REPORT.md").exists()


def _solver_telemetry_row(n: int) -> dict:
    setup = ExperimentSetup(n_objects=n, updates_per_period=2.0 * n,
                            syncs_per_period=0.5 * n, theta=1.0,
                            update_std_dev=2.0)
    catalog = build_catalog(setup, seed=0)
    with obs.telemetry() as registry:
        start = time.perf_counter()
        solution = solve_core_problem(catalog, 0.5 * n)
        elapsed = time.perf_counter() - start
    count, total_s = registry.span_totals["solver.solve_weighted"]
    return {
        "n_elements": n,
        "wall_seconds": elapsed,
        "solver_span_seconds": total_s,
        "solver_calls": int(registry.counters["solver.calls"]),
        "waterfill_iterations":
            int(registry.counters["waterfill.iterations"]),
        "inner_passes": int(registry.counters["solver.inner_passes"]),
        "multiplier": solution.multiplier,
        "kkt_residual": registry.gauges["solver.kkt_residual"],
    }


def test_solver_telemetry_bench(benchmark):
    """Solver scaling measured through the telemetry layer itself."""
    rows = benchmark.pedantic(
        lambda: [_solver_telemetry_row(n) for n in SOLVER_SIZES],
        rounds=1, iterations=1)
    for row in rows:
        assert row["solver_calls"] == 1
        assert row["waterfill_iterations"] > 0
        assert row["solver_span_seconds"] <= row["wall_seconds"]
        # A cold solve is a handful of full passes at every size: the
        # whole point of the structured solver's scalability story.
        assert row["inner_passes"] <= MAX_COLD_PASSES, row
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"benchmark": "solver_telemetry", "rows": rows}
    (RESULTS_DIR / "BENCH_solver.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
