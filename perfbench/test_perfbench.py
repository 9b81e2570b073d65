"""Self-tests of the benchmark at 10³ elements.

Run from the repository root with ``python3 -m pytest perfbench``.
Every workload path runs end to end in seconds, every metric named in
``BENCHMARK.json`` is emitted with its unit, and a corrupted result
counts as a failed run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as runner
import worker
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = 1000


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, traced: bool) -> dict:
    return worker.run_once({"workload": workload, "seed": 3,
                            "traced": traced, "elements": SMALL})


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_end_to_end(workload: str, traced: bool) -> None:
    record = _run(workload, traced)
    assert record["ok"], record["failures"]
    assert record["pipeline_s"] > 0.0
    if traced:
        assert set(record["layer_metrics"]) == \
            set(runner.PER_LAYER) - {"obs.trace_overhead"}
        layers = dict(record["layers"])
        traced_s = layers.pop("pipeline_traced_s")
        # The root span sits just inside the pipeline_s clock reads.
        assert sum(layers.values()) == pytest.approx(traced_s,
                                                     abs=1e-3)


def test_deterministic_counts_repeat() -> None:
    first = _run("adapt-exact-iid-1e5", True)
    second = _run("adapt-exact-iid-1e5", True)
    for name in ("sim.events", "numerics.waterfill_iterations",
                 "runtime.replans", "runtime.window_rollbacks",
                 "faults.attempted_polls", "faults.failed_polls",
                 "faults.retries", "faults.denied_polls"):
        assert first["layer_metrics"][name] == \
            second["layer_metrics"][name], name


def test_spec_matches_runner_tables() -> None:
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (unit, _) in runner.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in runner.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == \
        list(worker.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_cli_emits_every_metric(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--elements", str(SMALL)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(set(metric) == {"value", "unit"}
               for metric in result["metrics"].values())


def test_cli_refuses_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "oneshot-quiet-1e6", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout == ""


def test_plan_over_budget_fails(monkeypatch: pytest.MonkeyPatch) -> None:
    from dataclasses import replace

    from repro.core.freshener import PartitionedFreshener

    honest = PartitionedFreshener.plan

    def inflated(self, catalog, bandwidth):
        plan = honest(self, catalog, bandwidth)
        return replace(plan, frequencies=plan.frequencies * 1.1)

    monkeypatch.setattr(PartitionedFreshener, "plan", inflated)
    record = _run("oneshot-quiet-1e6", False)
    assert not record["ok"]
    assert any("budget feasibility" in f for f in record["failures"])


def test_dropped_slab_fails(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.sim.fastpath import StreamingReplay

    honest = StreamingReplay.feed
    fed = []

    def lossy(self, times, elements, kinds, *, n_periods):
        fed.append(n_periods)
        if len(fed) == 2:
            return honest(self, times[:0], elements[:0], kinds[:0],
                          n_periods=n_periods)
        return honest(self, times, elements, kinds,
                      n_periods=n_periods)

    monkeypatch.setattr(StreamingReplay, "feed", lossy)
    record = _run("stream-burst-1e6", False)
    assert not record["ok"]
    assert any(f.startswith("syncs") for f in record["failures"])


def test_reference_fallback_fails(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.sim.simulation import Simulation

    honest = Simulation.run

    def reference(self, n_periods, *, engine="auto", chunk_periods=None):
        return honest(self, n_periods, engine="reference")

    monkeypatch.setattr(Simulation, "run", reference)
    record = _run("oneshot-quiet-1e6", True)
    assert not record["ok"]
    assert any(f.startswith("engine") for f in record["failures"])


def test_failed_runs_are_counted(monkeypatch: pytest.MonkeyPatch,
                                 capsys: pytest.CaptureFixture) -> None:
    good = dict(_run("oneshot-quiet-1e6", False), setup_s=0.1,
                traced=False, setup_only=False, sample=1)
    failed = {"ok": False, "failures": ["boom"], "traced": False,
              "setup_only": False, "sample": 0}
    probe = {"ok": True, "failures": [], "setup_s": 0.2,
             "traced": False, "setup_only": True, "sample": 0}
    monkeypatch.setattr(runner, "measure",
                        lambda args: [failed, good, probe])
    code = runner.main(["--workload", "oneshot-quiet-1e6", "--seed",
                        "1", "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.15)


def test_self_time_subtracts_children() -> None:
    tracer = Tracer("t")
    tracer.record("pipeline", 0.0, 10.0)
    tracer.record("core.plan", 1.0, 4.0)
    tracer.record("solver.solve_weighted", 1.5, 3.5, source="program")
    tracer.record("sim.run_call", 5.0, 9.0)
    # A wrapper whose program span was rebuilt a few microseconds late.
    tracer.record("sim.generate", 5.00003, 7.00005, source="program")
    tracer.record("sim.build_tape", 5.00001, 7.0)
    tracer.link()
    names = [span.name for span in tracer.spans]
    own = dict(zip(names, tracer.self_times()))
    parents = {span.name: (names[span.parent]
                           if span.parent is not None else None)
               for span in tracer.spans}
    assert parents == {"pipeline": None, "core.plan": "pipeline",
                       "solver.solve_weighted": "core.plan",
                       "sim.run_call": "pipeline",
                       "sim.generate": "sim.run_call",
                       "sim.build_tape": "sim.generate"}
    assert own == pytest.approx({"pipeline": 3.0, "core.plan": 1.0,
                                 "solver.solve_weighted": 2.0,
                                 "sim.run_call": 1.99998,
                                 "sim.generate": 3e-5,
                                 "sim.build_tape": 1.99999}, abs=1e-9)
