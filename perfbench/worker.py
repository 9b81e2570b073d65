"""One benchmark run: build a catalog, plan, simulate, check, report.

The runner (``run.py``) starts this file once per measured run, in a
fresh interpreter with BLAS/OpenMP threads pinned to one, so that
peak RSS and set-up time belong to that run alone::

    python perfbench/worker.py '{"workload": "oneshot-quiet-1e6",
                                 "seed": 1, "traced": false}'

Optional config keys: ``sample`` (index of the run within its
invocation, 0 by default; with ``seed`` it selects the run's
traffic), ``elements`` (override the workload's catalog
size; the self-tests use 10³), ``spawn_monotonic`` (the runner's
``time.monotonic()`` just before it started this process; set-up time
is measured from it) and ``setup_only`` (stop after set-up: imports
and catalog).  One JSON object is printed on stdout.

A run times the whole pipeline a user runs -- plan, then tape
generation and replay, then the result -- and afterwards, outside the
timed region, checks the plan and the result.  Any exception or failed
check makes the run count as failed.  With ``traced`` on, the program's
telemetry is enabled and spans are recorded around each layer call
(see ``tracing.py``); the per-layer metrics come from those runs only.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from unittest.mock import patch

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for _path in (str(_SRC), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name, as given to ``--workload``.
        kind: ``oneshot`` (one-shot ``Simulation.run``), ``stream``
            (``Simulation.run(chunk_periods=...)``) or ``adapt``
            (``AdaptiveMirrorManager.run``).
        n_elements: Catalog size.
        n_periods: Simulated horizon, in periods.
        engine: The ``sim.engine.*`` kernel the run must dispatch to.
        pf_gap_band: Allowed range of monitored minus analytic PF at
            ``n_elements``.  The finite horizon biases monitored PF
            upward (every copy starts fresh); the band brackets the
            gaps measured when the benchmark was written, with a
            margin, and is a bias to measure, not an error to hide.
    """

    name: str
    kind: str
    n_elements: int
    n_periods: int
    engine: str
    pf_gap_band: tuple[float, float]


WORKLOADS = {w.name: w for w in (
    Workload("oneshot-quiet-1e6", "oneshot", 1_000_000, 2,
             "fastpath", (0.02, 0.045)),
    Workload("stream-burst-1e6", "stream", 1_000_000, 4,
             "fastpath_ge", (0.0, 0.03)),
    Workload("adapt-exact-iid-1e5", "adapt", 100_000, 4,
             "fastpath_faulted", (0.06, 0.16)),
)}

#: PF gap range accepted when a run overrides the catalog size (the
#: self-tests): small catalogs carry more sampling noise and their own
#: bias, so only a gross error is caught there.
SANITY_PF_GAP_BAND = (-0.1, 0.3)

#: Catalog shape, as in ``benchmarks/scaling_worker.py``: per period,
#: updates 1·n, sync budget 0.3·n and requests 0.5·n; Zipf θ = 1,
#: change-rate σ = 2.
UPDATES_FACTOR = 1.0
SYNCS_FACTOR = 0.3
REQUEST_FACTOR = 0.5
THETA = 1.0
RATE_STD_DEV = 2.0
#: Seed of the workload's catalog (the one ``scaling_worker.py`` uses).
CATALOG_SEED = 0
#: Partition count of the heuristic planner (one-shot and stream).
N_PARTITIONS = 64
#: Gilbert–Elliott burst loss of the stream workload.
BURST_P_GOOD_TO_BAD = 0.05
BURST_P_BAD_TO_GOOD = 0.4
BURST_BUDGET = 1e9
#: i.i.d. loss and retries of the adaptive workload.
IID_LOSS = 0.2
MAX_RETRIES = 3
#: Replan whenever the believed profile moved at all, so every period
#: replans and each run does the same work whatever the seed: 4 cold
#: exact solves, and window batching simulates 10 periods (3
#: rollbacks) to accept 4.
REPLAN_DIVERGENCE = 0.0
#: Ceiling on ``kkt_residual / μ`` for an exact plan.
KKT_REL_TOL = 1e-6
#: Width, in standard deviations, of the event-count bands.
COUNT_SIGMAS = 6.0
#: Largest negative self time accepted from clock-read jitter, in
#: seconds, before a trace counts as misattributed.
OVERLAP_TOLERANCE_S = 1e-3
#: Bytes per tape event in the structure-of-arrays layout (float64
#: time, int32 element, int8 kind).  Tape sizes are computed from it.
TAPE_BYTES_PER_EVENT = 13

#: Layer of each span name; other spans inherit their parent's layer.
LAYER_OF = {
    "pipeline": "bench",
    "core.plan": "core",
    "sim.construct": "sim.setup",
    "sim.run_call": "sim.setup",
    "sim.generate": "sim.generate",
    "sim.build_tape": "sim.generate",
    "sim.run": "sim.replay",
    "manager.simulate": "sim.replay",
    "faults.resolve": "faults",
    "runtime.manager_run": "runtime",
    "manager.plan": "runtime",
    "manager.estimate": "runtime",
}

ENGINE_CODES = {"reference": 0, "fastpath": 1, "fastpath_faulted": 2,
                "fastpath_ge": 3}


class CheckFailure(Exception):
    """A correctness check rejected the run's output."""


class RecordingFreshener:
    """Planner proxy keeping every plan call's inputs and output.

    The manager and the one-shot pipelines call ``plan`` on it as on
    any :class:`~repro.core.freshener.Freshener`; the recorded calls
    feed the plan checks after the timed region.
    """

    def __init__(self, inner: Any, plan: Callable[..., Any]) -> None:
        self._inner = inner
        self._plan = plan
        self.calls: list[tuple[Any, float, Any]] = []

    @property
    def model(self) -> Any:
        return self._inner.model

    def plan(self, catalog: Any, bandwidth: float) -> Any:
        plan = self._plan(catalog, bandwidth)
        self.calls.append((catalog, bandwidth, plan))
        return plan


class WindowProbe:
    """Wraps the manager's window kernel: times it, keeps scalars.

    Only scalars and a reference to each call's frequency vector are
    kept, so the probe adds no per-element memory to the run.
    """

    SCALARS = ("n_updates", "n_syncs", "n_accesses", "useful_syncs",
               "attempted_polls", "failed_polls", "retries",
               "denied_polls", "bandwidth_used", "attempted_bandwidth")

    def __init__(self, kernel: Callable[..., Any]) -> None:
        self._kernel = kernel
        self.seconds = 0.0
        self.fault_kinds: set[str] = set()
        self.periods: list[tuple[Any, dict[str, float]]] = []

    def __call__(self, catalog: Any, frequencies: Any, tapes: Any,
                 **kwargs: Any) -> Any:
        start = time.perf_counter()
        results, consumed = self._kernel(catalog, frequencies, tapes,
                                         **kwargs)
        self.seconds += time.perf_counter() - start
        fault_args = kwargs.get("fault_args")
        self.fault_kinds.add(fault_args["kind"] if fault_args
                             else "none")
        for result in results:
            self.periods.append((frequencies, {
                name: getattr(result, name) for name in self.SCALARS}))
        return results, consumed


def import_layers() -> None:
    """Import every module a run touches, so set-up time counts it."""
    import repro.contracts  # noqa: F401
    import repro.core.freshener  # noqa: F401
    import repro.core.solver  # noqa: F401
    import repro.faults.model  # noqa: F401
    import repro.faults.retry  # noqa: F401
    import repro.obs.registry  # noqa: F401
    import repro.runtime.manager  # noqa: F401
    import repro.sim.fastpath  # noqa: F401
    import repro.sim.simulation  # noqa: F401
    import repro.workloads.presets  # noqa: F401


def build_inputs(workload: Workload, seed: int, sample: int = 0,
                 n_elements: int | None = None) -> dict[str, Any]:
    """The catalog and the run's generators.

    The catalog belongs to the workload and is drawn from a fixed
    seed: under Zipf θ = 1 a handful of elements carry most accesses,
    so a catalog redrawn per seed would move perceived freshness by
    several percent.  ``(seed, sample)`` drives every draw of the run
    itself -- sync phases, update and request traffic, and faults --
    so the runs of one invocation each see their own traffic.
    """
    import numpy as np

    from repro.workloads.presets import ExperimentSetup, build_catalog

    n = int(n_elements or workload.n_elements)
    sim_seq, fault_seq = np.random.SeedSequence([seed, sample]).spawn(2)
    setup = ExperimentSetup(n_objects=n,
                            updates_per_period=UPDATES_FACTOR * n,
                            syncs_per_period=SYNCS_FACTOR * n,
                            theta=THETA, update_std_dev=RATE_STD_DEV)
    catalog = build_catalog(setup, seed=CATALOG_SEED)
    return {"n": n, "catalog": catalog,
            "bandwidth": setup.syncs_per_period,
            "request_rate": REQUEST_FACTOR * n,
            "sim_rng": np.random.default_rng(sim_seq),
            "fault_rng": np.random.default_rng(fault_seq)}


def run_pipeline(workload: Workload, inputs: dict[str, Any],
                 tracer: Tracer | None) -> dict[str, Any]:
    """Run the timed pipeline; return its outputs and timings."""
    from repro.core.freshener import PartitionedFreshener, PerceivedFreshener
    from repro.faults.model import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.runtime import manager as manager_module
    from repro.sim import fastpath
    from repro.sim.simulation import Simulation

    def span(name: str) -> Any:
        return tracer.span(name) if tracer is not None else nullcontext()

    inner = (PerceivedFreshener() if workload.kind == "adapt"
             else PartitionedFreshener(n_partitions=N_PARTITIONS))
    plan_call = (tracer.wrap("core.plan", inner.plan)
                 if tracer is not None else inner.plan)
    freshener = RecordingFreshener(inner, plan_call)
    catalog = inputs["catalog"]
    out: dict[str, Any] = {"freshener": freshener}
    with ExitStack() as patches:
        if tracer is not None:
            patches.enter_context(patch.object(
                Simulation, "build_tape", tracer.wrap(
                    "sim.build_tape", Simulation.build_tape)))
            for name in ("resolve_iid_faults", "resolve_ge_faults"):
                patches.enter_context(patch.object(
                    fastpath, name, tracer.wrap(
                        "faults.resolve", getattr(fastpath, name))))
        if workload.kind == "adapt":
            from repro.runtime.manager import AdaptiveMirrorManager

            probe = WindowProbe(manager_module.replay_window_tapes)
            patches.enter_context(patch.object(
                manager_module, "replay_window_tapes", probe))
            manager = AdaptiveMirrorManager(
                catalog, inputs["bandwidth"],
                request_rate=inputs["request_rate"],
                rng=inputs["sim_rng"], freshener=freshener,
                replan_divergence=REPLAN_DIVERGENCE,
                fault_plan=FaultPlan.iid(IID_LOSS),
                retry_policy=RetryPolicy(max_retries=MAX_RETRIES))
            start = time.perf_counter()
            with span("pipeline"), span("runtime.manager_run"):
                reports = manager.run(workload.n_periods)
            out["pipeline_s"] = time.perf_counter() - start
            out.update(reports=reports, probe=probe,
                       sim_call_s=probe.seconds)
            return out

        fault_kwargs: dict[str, Any] = {}
        if workload.kind == "stream":
            fault_kwargs = dict(
                fault_plan=FaultPlan.bursty(BURST_P_GOOD_TO_BAD,
                                            BURST_P_BAD_TO_GOOD),
                bandwidth_budget=BURST_BUDGET,
                fault_rng=inputs["fault_rng"])
        chunk = 1 if workload.kind == "stream" else None
        start = time.perf_counter()
        with span("pipeline"):
            plan = freshener.plan(catalog, inputs["bandwidth"])
            with span("sim.construct"):
                simulation = Simulation(
                    catalog, plan.frequencies,
                    request_rate=inputs["request_rate"],
                    rng=inputs["sim_rng"], **fault_kwargs)
            sim_start = time.perf_counter()
            with span("sim.run_call"):
                result = simulation.run(float(workload.n_periods),
                                        chunk_periods=chunk)
            sim_end = time.perf_counter()
        out["pipeline_s"] = sim_end - start
        out.update(result=result, simulation=simulation, plan=plan,
                   sim_call_s=sim_end - sim_start,
                   budget=(BURST_BUDGET if workload.kind == "stream"
                           else None))
        return out


def _check(failures: list[str], name: str, test: Callable[[], Any]
           ) -> None:
    """Run one check; record its failure message instead of raising."""
    try:
        test()
    except Exception as exc:  # a check boundary: record and go on
        failures.append(f"{name}: {type(exc).__name__}: {exc}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _within_poisson(observed: float, mean: float) -> bool:
    return abs(observed - mean) <= COUNT_SIGMAS * math.sqrt(
        max(mean, 1.0))


def evaluate(workload: Workload, inputs: dict[str, Any],
             out: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    """Check a finished run and derive its output quantities.

    Returns the run's quantities (counts, PF, bandwidth figures) and
    the list of failed checks, empty when the output is correct.
    """
    import numpy as np

    from repro.contracts import (
        check_attempt_budget,
        check_budget_feasible,
        check_nonnegative,
        check_sync_conservation,
    )
    from repro.core.solver import ScheduleSolution, kkt_residual

    failures: list[str] = []
    freshener: RecordingFreshener = out["freshener"]
    catalog = inputs["catalog"]
    sizes = np.asarray(catalog.sizes, dtype=float)
    q: dict[str, float] = {"plan_calls": len(freshener.calls)}

    slack = []
    residuals = []
    for index, (believed, bandwidth, plan) in enumerate(freshener.calls):
        where = f"plan[{index}]"
        _check(failures, where, lambda: check_nonnegative(
            plan.frequencies, name="frequencies", where=where))
        _check(failures, where, lambda: check_budget_feasible(
            believed.sizes, plan.frequencies, bandwidth, where=where))
        slack.append((bandwidth - float(believed.sizes
                                        @ plan.frequencies))
                     / bandwidth)
        if "multiplier" in plan.metadata:
            mu = float(plan.metadata["multiplier"])
            solution = ScheduleSolution(
                frequencies=plan.frequencies, multiplier=mu,
                bandwidth=plan.bandwidth, objective=0.0, iterations=0)
            residual = kkt_residual(
                solution, believed.access_probabilities,
                believed.change_rates, believed.sizes, model=None)
            residuals.append(residual / mu)
    _check(failures, "plan calls",
           lambda: _require(len(freshener.calls) >= 1, "no plan call"))
    q["budget_slack"] = max(slack) if slack else float("nan")
    if residuals:
        q["kkt_rel_residual"] = max(residuals)
        _check(failures, "kkt", lambda: _require(
            q["kkt_rel_residual"] <= KKT_REL_TOL,
            f"kkt_residual/mu {q['kkt_rel_residual']:.3e} > "
            f"{KKT_REL_TOL:.0e}"))

    if workload.kind == "adapt":
        probe: WindowProbe = out["probe"]
        reports = out["reports"]
        bandwidth = inputs["bandwidth"]
        for index, (frequencies, scalars) in enumerate(probe.periods):
            where = f"period[{index}]"
            planned = float(sizes @ frequencies)
            granularity = float(sizes[frequencies > 0.0].sum())
            _check(failures, where, lambda: check_sync_conservation(
                scalars["bandwidth_used"], planned, 1.0, granularity,
                where=where))
            _check(failures, where, lambda: check_attempt_budget(
                scalars["attempted_bandwidth"], bandwidth, 1.0,
                granularity, where=where))
        _check(failures, "reports", lambda: _require(
            len(reports) == workload.n_periods,
            f"{len(reports)} reports for {workload.n_periods} periods"))
        _check(failures, "window kernel", lambda: _require(
            probe.fault_kinds == {"iid"},
            f"window kernel saw fault kinds {sorted(probe.fault_kinds)}"))
        totals = {name: float(sum(s[name] for _, s in probe.periods))
                  for name in WindowProbe.SCALARS}
        accesses = float(sum(r.n_accesses for r in reports))
        pf = float(sum(r.monitored_pf * r.n_accesses
                       for r in reports)) / max(accesses, 1.0)
        analytic = float(sum(r.achieved_pf * r.n_accesses
                             for r in reports)) / max(accesses, 1.0)
        q.update(simulated_periods=len(probe.periods),
                 accepted_periods=len(reports))
    else:
        result = out["result"]
        simulation = out["simulation"]
        horizon = float(workload.n_periods)
        frequencies = out["plan"].frequencies
        planned = float(sizes @ frequencies)
        granularity = float(sizes[frequencies > 0.0].sum())
        _check(failures, "result", lambda: check_sync_conservation(
            result.bandwidth_used, planned, horizon, granularity,
            where="result"))
        if out["budget"] is not None:
            _check(failures, "result", lambda: check_attempt_budget(
                result.attempted_bandwidth, out["budget"],
                float(np.ceil(horizon)), granularity, where="result"))
        # Every scheduled sync is either attempted once (plus retries)
        # or denied by the budget ledger before its first attempt.
        scheduled = simulation.schedule.events_until(horizon)[0].size
        replayed = (result.attempted_polls - result.retries
                    + result.denied_polls)
        _check(failures, "syncs", lambda: _require(
            replayed == scheduled,
            f"{replayed} syncs replayed, {scheduled} scheduled"))
        expected_updates = float(catalog.change_rates.sum()) * horizon
        _check(failures, "updates", lambda: _require(
            _within_poisson(result.n_updates, expected_updates),
            f"{result.n_updates} updates, expected "
            f"~{expected_updates:.0f}"))
        expected_accesses = inputs["request_rate"] * horizon
        _check(failures, "accesses", lambda: _require(
            _within_poisson(result.n_accesses, expected_accesses),
            f"{result.n_accesses} accesses, expected "
            f"~{expected_accesses:.0f}"))
        totals = {name: float(getattr(result, name))
                  for name in WindowProbe.SCALARS}
        accesses = float(result.n_accesses)
        pf = float(result.monitored_perceived_freshness)
        analytic = float(result.analytic()[0])
        q.update(simulated_periods=workload.n_periods,
                 accepted_periods=workload.n_periods)

    gap = pf - analytic
    low, high = (workload.pf_gap_band
                 if inputs["n"] == workload.n_elements
                 else SANITY_PF_GAP_BAND)
    _check(failures, "pf_gap", lambda: _require(
        low <= gap <= high,
        f"monitored-analytic PF gap {gap:+.4f} outside "
        f"[{low:+.3f}, {high:+.3f}]"))
    q.update(totals)
    q.update(perceived_freshness=pf, pf_gap=gap,
             events=totals["n_updates"] + totals["n_syncs"]
             + totals["n_accesses"])
    return q, failures


def layer_metrics(workload: Workload, tracer: Tracer, registry: Any,
                  q: dict[str, float], pipeline_s: float
                  ) -> tuple[dict[str, float], dict[str, float],
                             list[str]]:
    """Per-layer metrics of a traced run, its layer table and checks."""
    failures: list[str] = []
    tracer.link()
    own = tracer.self_times()
    layers: dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        layer = LAYER_OF.get(span.name)
        if layer is None:
            layer = next((LAYER_OF[a.name]
                          for a in tracer.ancestors(index)
                          if a.name in LAYER_OF), "unattributed")
        layers[layer] = layers.get(layer, 0.0) + own[index]

    counters = registry.counters
    gauges = registry.gauges
    engines = {name.removeprefix("sim.engine."): count
               for name, count in counters.items()
               if name.startswith("sim.engine.") and count > 0}
    _check(failures, "engine", lambda: _require(
        set(engines) == {workload.engine},
        f"dispatched to {sorted(engines)}, expected "
        f"{workload.engine!r}"))
    _check(failures, "trace", lambda: _require(
        counters.get("obs.dropped_events", 0) == 0,
        "telemetry events were dropped; spans are incomplete"))
    roots = [span for span in tracer.spans if span.parent is None]
    _check(failures, "trace", lambda: _require(
        len(roots) == 1 and roots[0].name == "pipeline",
        f"trace roots {[span.name for span in roots]}"))
    # Overlapping siblings would count their common time twice and
    # leave their parent a negative self time.
    overlap = min(own)
    _check(failures, "trace", lambda: _require(
        overlap >= -OVERLAP_TOLERANCE_S,
        f"a span's children overlap by {-overlap:.6f} s"))

    events = q["events"]
    generate = layers.get("sim.generate", 0.0)
    replay = layers.get("sim.replay", 0.0)
    attempted = q["attempted_polls"]
    kkt = q.get("kkt_rel_residual")
    if kkt is None:
        # Heuristic plans: the residual of the transformed problem's
        # exact solve, from the solver's telemetry.
        mu = gauges.get("solver.multiplier", 0.0)
        kkt = gauges.get("solver.kkt_residual", 0.0) / mu if mu else 0.0
    metrics = {
        "core.plan_s": layers.get("core", 0.0),
        "core.plan_calls": q["plan_calls"],
        "numerics.waterfill_iterations":
            counters.get("waterfill.iterations", 0.0),
        "numerics.bracket_expansions":
            counters.get("waterfill.bracket_expansions", 0.0),
        "core.kkt_rel_residual": kkt,
        "core.budget_slack": q["budget_slack"],
        "sim.generate_s": generate,
        "sim.generate_ns_per_event": generate / events * 1e9,
        "sim.events": events,
        "sim.updates": q["n_updates"],
        "sim.syncs": q["n_syncs"],
        "sim.accesses": q["n_accesses"],
        "sim.tape_bytes": events * TAPE_BYTES_PER_EVENT,
        "sim.replay_s": replay,
        "sim.replay_ns_per_event": replay / events * 1e9,
        "sim.useful_sync_ratio": q["useful_syncs"] / q["n_syncs"],
        "sim.pf_gap": q["pf_gap"],
        "sim.engine": ENGINE_CODES.get(
            next(iter(engines), "reference"), 0) if len(engines) == 1
        else -1,
        "faults.resolve_s": layers.get("faults", 0.0),
        "faults.attempted_polls": attempted,
        "faults.failed_polls": q["failed_polls"],
        "faults.retries": q["retries"],
        "faults.denied_polls": q["denied_polls"],
        "faults.success_ratio": ((attempted - q["failed_polls"])
                                 / attempted if attempted else 1.0),
        "runtime.manager_self_s": layers.get("runtime", 0.0),
        "runtime.replans": counters.get("manager.replans", 0.0),
        "runtime.window_rollbacks":
            counters.get("manager.window_rollbacks", 0.0),
        "runtime.simulated_periods": q["simulated_periods"],
        "runtime.useful_period_ratio":
            q["accepted_periods"] / q["simulated_periods"],
    }
    layers["pipeline_traced_s"] = pipeline_s
    return metrics, layers, failures


def run_once(config: dict[str, Any]) -> dict[str, Any]:
    """Execute one run described by ``config``; never raises."""
    record: dict[str, Any] = {"ok": False, "failures": []}
    try:
        workload = WORKLOADS[config["workload"]]
        seed = int(config["seed"])
        traced = bool(config.get("traced", False))
        import_layers()
        inputs = build_inputs(workload, seed, int(config.get("sample", 0)),
                              config.get("elements"))
        if "spawn_monotonic" in config:
            record["setup_s"] = (time.monotonic()
                                 - float(config["spawn_monotonic"]))
        if config.get("setup_only"):
            record["ok"] = True
            return record
        from repro.obs import registry as obs

        tracer = Tracer(run_id=f"{workload.name}:{seed}:"
                        f"{config.get('sample', 0)}")
        if traced:
            with obs.telemetry() as registry:
                before = time.perf_counter()
                obs.event("perfbench.clock")
                after = time.perf_counter()
                epoch = 0.5 * (before + after) - registry.events[-1]["t"]
                out = run_pipeline(workload, inputs, tracer)
        else:
            out = run_pipeline(workload, inputs, None)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        q, failures = evaluate(workload, inputs, out)
        record.update(
            pipeline_s=out["pipeline_s"],
            sim_call_s=out["sim_call_s"],
            peak_rss_mb=peak_kb / 1024.0,
            quantities=q)
        if traced:
            tracer.import_program_spans(
                registry.events_of_kind("span"), epoch)
            metrics, layers, trace_failures = layer_metrics(
                workload, tracer, registry, q, out["pipeline_s"])
            failures += trace_failures
            record.update(layer_metrics=metrics, layers=layers,
                          spans=tracer.records())
        record["failures"] = failures
        record["ok"] = not failures
    except Exception:  # a run boundary: report, never crash the runner
        record["failures"].append(traceback.format_exc())
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: worker.py '<json config>'", file=sys.stderr)
        return 2
    print(json.dumps(run_once(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
