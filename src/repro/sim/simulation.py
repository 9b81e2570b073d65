"""The simulation orchestrator: wire up Figure 4 and replay events.

A :class:`Simulation` connects the update generator to the
:class:`~repro.sim.source.Source`, the synchronization schedule and
request generator to the :class:`~repro.sim.mirror.Mirror`, and the
:class:`~repro.sim.evaluator.FreshnessMonitor` to everything, then
replays the merged event tape in time order.

Typical use::

    plan = PerceivedFreshener().plan(catalog, bandwidth=250.0)
    sim = Simulation(catalog, plan.frequencies, request_rate=1000.0,
                     rng=np.random.default_rng(0))
    result = sim.run(n_periods=20)
    result.monitored_perceived_freshness   # what users actually saw
"""

from __future__ import annotations

import numpy as np

from repro.contracts import (
    check_attempt_budget,
    check_sync_conservation,
    contracts_enabled,
)
from repro.core.scheduler import PhasePolicy, SyncSchedule
from repro.errors import ValidationError
from repro.faults.breaker import CircuitBreaker
from repro.faults.channel import SyncChannel
from repro.faults.model import FaultPlan, PollOutcome
from repro.faults.retry import RetryPolicy
from repro.faults.topology import Topology
from repro.numerics.sorting import stable_time_argsort
from repro.obs import registry as obs
from repro.sim.events import (
    EventKind,
    EventStream,
    merge_sorted_blocks,
    merge_streams,
)
from repro.sim.evaluator import FreshnessMonitor, SimulationResult
from repro.sim.fastpath import (
    ReplayArena,
    StreamingReplay,
    replay_fastpath,
    replay_fastpath_faulted,
    replay_fastpath_ge,
)
from repro.sim.generators import RequestGenerator, UpdateGenerator
from repro.sim.mirror import Mirror
from repro.sim.source import Source
from repro.workloads.catalog import Catalog

__all__ = ["Simulation"]


def _time_sorted(times: np.ndarray, elements: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Stable time sort of one raw (unsorted) draw stream."""
    order = stable_time_argsort(times)
    return times[order], elements[order]


class _PeriodTracker:
    """Per-period telemetry accumulator for :meth:`Simulation.run`.

    Only instantiated when telemetry is enabled, so the event loop
    pays a single ``is not None`` test per event otherwise.  Emits one
    ``"sim.period"`` event per completed sync period carrying the
    series the paper's figures are built from: syncs issued, budget
    utilization, accesses and their fresh fraction, and the mirror's
    instantaneous mean freshness at the period boundary.
    """

    __slots__ = ("_sizes", "_period_length", "_mirror", "_planned",
                 "_period", "syncs", "bandwidth", "updates",
                 "accesses", "fresh_accesses", "failed_polls",
                 "retries")

    def __init__(self, catalog: Catalog, planned_per_period: float,
                 period_length: float, mirror: Mirror) -> None:
        self._sizes = catalog.sizes
        self._period_length = period_length
        self._mirror = mirror
        self._planned = planned_per_period
        self._period = 0
        self.syncs = 0
        self.bandwidth = 0.0
        self.updates = 0
        self.accesses = 0
        self.fresh_accesses = 0
        self.failed_polls = 0
        self.retries = 0

    def advance_to(self, time: float) -> None:
        """Flush any periods fully elapsed before ``time``."""
        period = int(time / self._period_length)
        while self._period < period:
            self._flush()
            self._period += 1

    def note_sync(self, element: int) -> None:
        """Record one sync of ``element`` in the current period."""
        self.syncs += 1
        self.bandwidth += float(self._sizes[element])

    def note_access(self, fresh: bool) -> None:
        """Record one served access and whether it saw fresh data."""
        self.accesses += 1
        if fresh:
            self.fresh_accesses += 1

    def finish(self, n_periods: float) -> None:
        """Flush through the final (possibly partial) period."""
        last = max(int(np.ceil(n_periods)) - 1, 0)
        while self._period < last:
            self._flush()
            self._period += 1
        self._flush()

    def _flush(self) -> None:
        utilization = (self.bandwidth / self._planned
                       if self._planned else 0.0)
        obs.event(
            "sim.period",
            period=obs.element_label(self._period),
            syncs=self.syncs,
            bandwidth=self.bandwidth,
            budget_utilization=utilization,
            updates=self.updates,
            accesses=self.accesses,
            fresh_fraction=(self.fresh_accesses / self.accesses
                            if self.accesses else 1.0),
            mean_freshness=float(self._mirror.freshness_vector().mean()),
            failed_polls=self.failed_polls,
            retries=self.retries,
        )
        obs.counter_add("sim.periods")
        obs.gauge_set("sim.budget_utilization", utilization)
        self.syncs = 0
        self.bandwidth = 0.0
        self.updates = 0
        self.accesses = 0
        self.fresh_accesses = 0
        self.failed_polls = 0
        self.retries = 0


class Simulation:
    """A configured mirror-freshening simulation.

    Args:
        catalog: Workload description (profile, change rates, sizes).
        frequencies: Sync frequency per element, per period.
        request_rate: User accesses per period (the paper assumes
            "many users frequently access the mirror").
        rng: Seeded generator driving updates, requests and phases.
        period_length: Clock length of one sync period.
        phase_policy: How sync phases are staggered.
        update_generator: Optional replacement source-update process
            (anything with a ``generate(horizon) -> EventStream`` of
            UPDATE events — e.g. :class:`~repro.sim.bursty.
            BurstyUpdateGenerator` for model-misspecification
            studies).  Defaults to the catalog's Poisson processes.
        fault_plan: Optional fault plan for the sync path.  None (or
            a quiet plan) keeps the classic fault-free path and is a
            true no-op: no extra random draws, bit-identical results.
        retry_policy: Backoff policy for retryable poll failures
            (only meaningful with a fault plan).
        breaker: Optional per-shard circuit breaker (only meaningful
            with a fault plan).
        shard_of: Element → breaker-shard map, shape
            ``(n_elements,)``; identity by default (the topology's
            subtree shard map when a topology is given).
        topology: Optional source→relay→edge tree the sync path polls
            through (only meaningful with a fault plan).  Attempts
            must fit every hop ledger on their root-to-edge path and
            completions lag by path latency; topology plans are
            stateful, so they replay on the reference loop.
        bandwidth_budget: Per-period attempt budget B for the
            channel's retry ledger, in size units per period.
            Defaults to the schedule's planned spend
            ``Σ sizeᵢ·fᵢ`` — a schedule planned below the real
            budget therefore has retry headroom, a tight one does
            not.
        fault_rng: Optional dedicated generator for the fault layer
            (fault draws, retry jitter).  When given, the workload
            stream (updates, accesses, phases) drawn from ``rng`` is
            identical whatever the faults do — the common-random-
            numbers setup paired fault/no-fault comparisons need.
            Defaults to sharing ``rng``.
        record_fault_trace: When True (and a fault plan is active),
            the result carries the per-attempt ``fault_trace`` tape
            for determinism audits.
        fault_time_offset: Added to event times before they reach
            the fault layer (plan, breaker, retry ledger), in clock
            units.  Lets a caller that runs one period at a time —
            the adaptive manager — keep outage windows and breaker
            cooldowns on one global clock while each run's local
            clock restarts at zero.  Must be a whole number of
            periods so the channel's budget ledger stays aligned.
    """

    def __init__(self, catalog: Catalog, frequencies: np.ndarray, *,
                 request_rate: float, rng: np.random.Generator,
                 period_length: float = 1.0,
                 phase_policy: PhasePolicy | str =
                 PhasePolicy.STAGGERED,
                 update_generator: UpdateGenerator | None = None,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 shard_of: np.ndarray | None = None,
                 topology: Topology | None = None,
                 bandwidth_budget: float | None = None,
                 fault_rng: np.random.Generator | None = None,
                 record_fault_trace: bool = False,
                 fault_time_offset: float = 0.0
                 ) -> None:
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != (catalog.n_elements,):
            raise ValidationError(
                f"frequencies shape {frequencies.shape} does not match "
                f"catalog size {catalog.n_elements}")
        if request_rate <= 0.0:
            raise ValidationError(
                f"request_rate must be > 0, got {request_rate}")
        if topology is not None and \
                topology.n_elements != catalog.n_elements:
            raise ValidationError(
                f"topology hosts {topology.n_elements} elements, "
                f"catalog has {catalog.n_elements}")
        if bandwidth_budget is not None and bandwidth_budget <= 0.0:
            raise ValidationError(
                f"bandwidth_budget must be > 0, got {bandwidth_budget}")
        remainder = fault_time_offset % period_length
        if fault_time_offset < 0.0 or min(
                remainder, period_length - remainder) > 1e-9:
            raise ValidationError(
                "fault_time_offset must be a non-negative whole "
                f"number of periods, got {fault_time_offset}")
        self._catalog = catalog
        self._frequencies = frequencies
        self._period_length = period_length
        self._rng = rng
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._shard_of = shard_of
        self._topology = topology
        self._bandwidth_budget = bandwidth_budget
        self._fault_rng = fault_rng
        self._record_fault_trace = record_fault_trace
        self._fault_time_offset = fault_time_offset
        # Planned bandwidth spend per period, Σ sizeᵢ·fᵢ — computed
        # once here instead of per run (it used to be duplicated in
        # run() and the period tracker).
        self._planned_per_period = float(catalog.sizes @ frequencies)
        self._schedule = SyncSchedule.from_frequencies(
            frequencies, period_length=period_length,
            phase_policy=phase_policy, rng=rng)
        self._updates = (update_generator if update_generator is not None
                         else UpdateGenerator(catalog,
                                              period_length=period_length,
                                              rng=rng))
        self._requests = RequestGenerator(
            catalog, rate=request_rate / period_length, rng=rng)

    @property
    def schedule(self) -> SyncSchedule:
        """The timed Fixed-Order schedule the mirror executes."""
        return self._schedule

    def build_tape(self, n_periods: float, *, fused: bool = True
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw and merge the run's full event tape.

        Consumes exactly the random draws :meth:`run` would before
        its replay starts (update stream first, then request stream),
        which is what lets the window-batched adaptive manager build
        several periods' tapes back to back and keep the workload
        stream bit-identical to per-period runs.

        Args:
            n_periods: Number of periods the tape covers, > 0.
            fused: Sort the raw ``draw_window`` update pull, then
                run-merge it with the sorted sync and request streams
                (bit-identical output and rng consumption, roughly
                half the generation time).
                Falls back to the per-stream sort +
                :func:`~repro.sim.events.merge_streams` route
                automatically for custom update generators that lack
                ``draw_window``; pass False to force that legacy
                route (the generation benchmark's baseline).

        Returns:
            ``(times, elements, kinds)`` merged in time order.
        """
        horizon = n_periods * self._period_length
        draw_window = getattr(self._updates, "draw_window", None)
        if fused and draw_window is not None:
            update_times, update_elements = _time_sorted(
                *draw_window(0.0, horizon))
            sync_times, sync_elements = \
                self._schedule.events_until(horizon)
            access_times, access_elements = \
                self._requests.draw_window(0.0, horizon)
            return merge_sorted_blocks(
                update_times, update_elements,
                sync_times, sync_elements,
                access_times, access_elements,
                n_elements=self._catalog.n_elements)
        sync_times, sync_elements = self._schedule.events_until(horizon)
        streams = [
            self._updates.generate(horizon),
            EventStream(kind=EventKind.SYNC, times=sync_times,
                        elements=sync_elements),
            self._requests.generate(horizon),
        ]
        return merge_streams(streams)

    def fault_kernel_args(self) -> dict | None:
        """The faulted kernel's plan/ledger arguments, if eligible.

        Returns None when the simulation is fault-free or its plan
        needs the reference loop (multi-model, latency, outages, a
        breaker, a relay topology, or a gated retry policy whose
        shared token bucket is cross-run stateful); otherwise the
        keyword arguments consumed by
        :func:`replay_fastpath_faulted`/:func:`replay_fastpath_ge`
        and :func:`repro.sim.fastpath.replay_window_tapes`, tagged
        with ``"kind"``: ``"iid"`` (failure probability/outcome) or
        ``"ge"`` (the single Gilbert–Elliott model, whose chain
        state the kernel threads explicitly), plus the shared retry
        policy, budget and fault rng.
        """
        if self._fault_plan is None or self._fault_plan.is_quiet:
            return None
        if self._breaker is not None:
            return None
        if self._topology is not None:
            # Hop ledgers and path latency are per-attempt stateful
            # effects the vectorized kernel cannot replay.
            return None
        if self._retry_policy is not None and \
                self._retry_policy.admission_gate is not None:
            # The herding gate's token bucket is shared across runs
            # (and managers); its admission order cannot be replayed
            # from a pre-drawn pool.
            return None
        budget = (self._bandwidth_budget
                  if self._bandwidth_budget is not None
                  else (self._planned_per_period
                        if self._planned_per_period > 0.0 else None))
        common = {
            "retry_policy": self._retry_policy,
            "bandwidth_budget": budget,
            "rng": (self._fault_rng if self._fault_rng is not None
                    else self._rng),
        }
        profile = self._fault_plan.iid_profile()
        if profile is not None:
            return {"kind": "iid", "failure_probability": profile[0],
                    "failure_outcome": profile[1], **common}
        model = self._fault_plan.ge_profile()
        if model is not None:
            return {"kind": "ge", "model": model, **common}
        return None

    def run(self, n_periods: float, *,
            engine: str = "auto",
            chunk_periods: int | None = None) -> SimulationResult:
        """Simulate ``n_periods`` sync periods.

        Args:
            n_periods: Number of periods to simulate, > 0 (several
                periods are needed for the monitored metrics to settle
                near the analytic values).
            engine: ``"auto"`` (default) replays fault-free tapes with
                the vectorized kernel (:mod:`repro.sim.fastpath`),
                stateless i.i.d.-loss plans with the vectorized
                faulted kernel, single retryable Gilbert–Elliott
                plans with the scan-vectorized burst kernel, and
                falls back to the per-event reference loop for
                everything else (latency, multi-model, outages,
                breakers, topologies, gated retries);
                ``"fastpath"`` insists on a kernel (an error for
                reference-only plans); ``"reference"`` forces the
                loop.  The engines are bit-identical, so this knob
                exists for equivalence tests and debugging, not for
                correctness.
            chunk_periods: When given, generate and replay the
                horizon in slabs of this many periods through the
                streaming engine (:class:`~repro.sim.fastpath.
                StreamingReplay`), keeping peak memory O(slab)
                instead of O(horizon).  Replay of a given tape is
                bit-identical to one-shot; *generation* switches to
                per-slab ``rng.spawn`` child streams, so results are
                statistically equivalent but not draw-identical to
                ``chunk_periods=None`` (see docs/PERFORMANCE.md).
                Requires a kernel-eligible plan and an update
                generator with ``draw_window``.

        Returns:
            The measured :class:`SimulationResult`.
        """
        if engine not in ("auto", "fastpath", "reference"):
            raise ValidationError(
                f"engine must be 'auto', 'fastpath' or 'reference', "
                f"got {engine!r}")
        if n_periods <= 0.0:
            raise ValidationError(f"n_periods must be > 0, got {n_periods}")
        if chunk_periods is not None:
            return self._run_streaming(n_periods, engine=engine,
                                       chunk_periods=chunk_periods)
        horizon = n_periods * self._period_length

        with obs.span("sim.generate"):
            times, elements, kinds = self.build_tape(n_periods)

        # A quiet (or absent) fault plan bypasses the channel
        # entirely: the fault-free paths below consume no extra
        # random draws, so results stay bit-identical.  Stateless
        # i.i.d. loss and single retryable Gilbert–Elliott plans
        # take the vectorized faulted kernels; everything else
        # (latency/multi-model/outages/breaker/topology/gated
        # retries) stays on the loop.
        planned_per_period = self._planned_per_period
        fault_free = self._fault_plan is None or self._fault_plan.is_quiet
        kernel_faults = (None if fault_free
                         else self.fault_kernel_args())
        if engine == "fastpath" and not fault_free and \
                kernel_faults is None:
            raise ValidationError(
                "engine='fastpath' cannot replay this fault plan "
                "(latency draws, multiple models, outage windows, a "
                "breaker, a relay topology, a gated retry policy or "
                "a non-retryable Gilbert–Elliott outcome); use "
                "'auto' or 'reference'")
        if fault_free and engine != "reference":
            with obs.span("sim.run"):
                result = replay_fastpath(
                    self._catalog, self._frequencies, times, elements,
                    kinds, horizon=horizon,
                    period_length=self._period_length,
                    n_periods=n_periods,
                    ledger_time_offset=self._fault_time_offset)
            if contracts_enabled():
                scheduled = self._frequencies > 0.0
                granularity = float(self._catalog.sizes[scheduled].sum())
                check_sync_conservation(
                    result.bandwidth_used,
                    planned_per_period,
                    n_periods,
                    granularity,
                    where="Simulation.run")
            return result
        if kernel_faults is not None and engine != "reference":
            kernel_kwargs = dict(kernel_faults)
            kernel = (replay_fastpath_ge
                      if kernel_kwargs.pop("kind") == "ge"
                      else replay_fastpath_faulted)
            with obs.span("sim.run"):
                result = kernel(
                    self._catalog, self._frequencies, times, elements,
                    kinds, horizon=horizon,
                    period_length=self._period_length,
                    n_periods=n_periods,
                    fault_time_offset=self._fault_time_offset,
                    record_fault_trace=self._record_fault_trace,
                    **kernel_kwargs)
            if contracts_enabled():
                scheduled = self._frequencies > 0.0
                granularity = float(self._catalog.sizes[scheduled].sum())
                check_sync_conservation(
                    result.bandwidth_used,
                    planned_per_period,
                    n_periods,
                    granularity,
                    where="Simulation.run")
                budget = kernel_faults["bandwidth_budget"]
                if budget is not None:
                    check_attempt_budget(
                        result.attempted_bandwidth,
                        budget,
                        float(np.ceil(n_periods)),
                        granularity,
                        where="Simulation.run")
            return result

        source = Source(self._catalog.n_elements)
        mirror = Mirror(source, sizes=self._catalog.sizes)
        monitor = FreshnessMonitor(self._catalog.n_elements, horizon)

        channel: SyncChannel | None = None
        budget: float | None = None
        if self._fault_plan is not None and not self._fault_plan.is_quiet:
            budget = (self._bandwidth_budget
                      if self._bandwidth_budget is not None
                      else (planned_per_period
                            if planned_per_period > 0.0 else None))
            channel = SyncChannel(
                mirror, plan=self._fault_plan,
                rng=(self._fault_rng if self._fault_rng is not None
                     else self._rng),
                retry_policy=self._retry_policy,
                breaker=self._breaker, shard_of=self._shard_of,
                topology=self._topology,
                bandwidth_budget=budget,
                period_length=self._period_length,
                record_trace=self._record_fault_trace)

        useful_syncs = 0
        n_updates = 0
        n_accesses = 0
        fresh_accesses = 0
        polls = np.zeros(self._catalog.n_elements, dtype=np.int64)
        changed_polls = np.zeros(self._catalog.n_elements, dtype=np.int64)
        update_kind = int(EventKind.UPDATE)
        sync_kind = int(EventKind.SYNC)
        # Per-period series tracker: hoisted to a local so the event
        # loop pays one bool test per event when telemetry is off.
        tracker = (_PeriodTracker(self._catalog, planned_per_period,
                                  self._period_length, mirror)
                   if obs.telemetry_enabled() else None)
        sim_span = obs.span("sim.run")
        with sim_span:
            for time, element, kind in zip(times.tolist(),
                                           elements.tolist(),
                                           kinds.tolist()):
                if tracker is not None:
                    tracker.advance_to(time)
                if kind == update_kind:
                    # Ledger: an update that catches a fresh copy
                    # opens a stale run — check before the source
                    # version bump makes the copy stale.
                    if tracker is not None and mirror.is_fresh(element):
                        obs.ledger_stale(
                            element, time + self._fault_time_offset)
                    source.apply_update(element)
                    monitor.note_update(element, time)
                    n_updates += 1
                    if tracker is not None:
                        tracker.updates += 1
                elif kind == sync_kind:
                    if channel is None:
                        polls[element] += 1
                        if mirror.sync(element):
                            useful_syncs += 1
                            changed_polls[element] += 1
                        monitor.note_sync(element, time)
                        if tracker is not None:
                            obs.ledger_refresh(
                                element,
                                time + self._fault_time_offset)
                            tracker.note_sync(element)
                    else:
                        report = channel.sync(
                            element, time + self._fault_time_offset)
                        succeeded = report.outcome is PollOutcome.OK
                        if succeeded:
                            # Only successful polls count as censored
                            # change-rate observations — a failed
                            # attempt reveals nothing about whether
                            # the element changed.
                            polls[element] += 1
                            if report.changed:
                                useful_syncs += 1
                                changed_polls[element] += 1
                            monitor.note_sync(element, time)
                            if tracker is not None:
                                obs.ledger_refresh(
                                    element,
                                    time + self._fault_time_offset)
                                tracker.note_sync(element)
                        if tracker is not None:
                            tracker.retries += report.retries
                            tracker.failed_polls += (
                                report.attempts - 1 if succeeded
                                else report.attempts)
                else:
                    fresh = mirror.serve_access(element)
                    monitor.note_access(element, time, fresh)
                    n_accesses += 1
                    if fresh:
                        fresh_accesses += 1
                    if tracker is not None:
                        tracker.note_access(fresh)
            if tracker is not None:
                tracker.finish(n_periods)
        monitor.close()

        if contracts_enabled():
            # Conservation law (ROADMAP): the schedule may not spend
            # more sync bandwidth than planned, up to Fixed-Order
            # granularity (at most one extra sync per scheduled
            # element over the horizon).
            scheduled = self._frequencies > 0.0
            granularity = float(self._catalog.sizes[scheduled].sum())
            check_sync_conservation(
                mirror.bandwidth_used,
                planned_per_period,
                n_periods,
                granularity,
                where="Simulation.run")
            if channel is not None and budget is not None:
                # Attempt accounting: every attempt, initial or
                # retry, is gated by the channel's period ledger, so
                # attempted bandwidth can never exceed B per period
                # (granularity slack only covers ceil effects at the
                # horizon's partial last period).
                check_attempt_budget(
                    channel.attempted_bandwidth,
                    budget,
                    float(np.ceil(n_periods)),
                    granularity,
                    where="Simulation.run")

        element_freshness = monitor.element_time_freshness()
        element_age = monitor.element_time_age()
        p = self._catalog.access_probabilities
        perceived_by_accesses = (fresh_accesses / n_accesses
                                 if n_accesses else float(p @ element_freshness))
        if tracker is not None:
            obs.counter_add("sim.runs")
            obs.counter_add("sim.engine.reference")
            obs.counter_add("sim.syncs", mirror.total_syncs)
            obs.counter_add("sim.useful_syncs", useful_syncs)
            obs.counter_add("sim.updates", n_updates)
            obs.counter_add("sim.accesses", n_accesses)
            obs.gauge_set("sim.bandwidth_used", mirror.bandwidth_used)
            obs.gauge_set("sim.monitored_perceived_freshness",
                          float(perceived_by_accesses))
            obs.gauge_set("sim.monitored_general_freshness",
                          float(element_freshness.mean()))
            if channel is not None:
                obs.gauge_set("sim.attempted_bandwidth",
                              channel.attempted_bandwidth)
                obs.gauge_set(
                    "sim.poll_failure_fraction",
                    (channel.failed_polls / channel.attempted_polls
                     if channel.attempted_polls else 0.0))
                if self._topology is not None:
                    ages = channel.hop_ages(
                        horizon + self._fault_time_offset)
                    obs.gauge_set("faults.topology.max_hop_age",
                                  float(ages.max()))
        return SimulationResult(
            catalog=self._catalog,
            frequencies=self._frequencies,
            horizon=horizon,
            period_length=self._period_length,
            n_updates=n_updates,
            n_syncs=mirror.total_syncs,
            n_accesses=n_accesses,
            useful_syncs=useful_syncs,
            bandwidth_used=mirror.bandwidth_used,
            monitored_perceived_freshness=float(perceived_by_accesses),
            monitored_time_perceived=float(p @ element_freshness),
            monitored_general_freshness=float(element_freshness.mean()),
            element_time_freshness=element_freshness,
            element_time_age=element_age,
            monitored_perceived_age=float(p @ element_age),
            access_counts=monitor.access_counts(),
            poll_counts=polls,
            changed_poll_counts=changed_polls,
            attempted_polls=(channel.attempted_polls
                             if channel is not None
                             else mirror.total_syncs),
            failed_polls=(channel.failed_polls
                          if channel is not None else 0),
            unreachable_polls=(channel.unreachable_polls
                               if channel is not None else 0),
            retries=channel.retries if channel is not None else 0,
            breaker_skips=(channel.breaker_skips
                           if channel is not None else 0),
            denied_polls=(channel.denied_polls
                          if channel is not None else 0),
            hop_denied=(channel.hop_denied
                        if channel is not None else 0),
            suppressed_retries=(channel.suppressed_retries
                                if channel is not None else 0),
            attempted_bandwidth=(channel.attempted_bandwidth
                                 if channel is not None
                                 else mirror.bandwidth_used),
            attempted_poll_counts=(channel.attempted_poll_counts()
                                   if channel is not None else None),
            failed_poll_counts=(channel.failed_poll_counts()
                                if channel is not None else None),
            unreachable_poll_counts=(channel.unreachable_poll_counts()
                                     if channel is not None else None),
            unreachable_elements=(channel.unreachable_mask()
                                  if channel is not None
                                  and self._breaker is not None
                                  else None),
            fault_trace=(tuple(channel.trace())
                         if channel is not None
                         and self._record_fault_trace else None),
        )

    def _run_streaming(self, n_periods: float, *, engine: str,
                       chunk_periods: int) -> SimulationResult:
        """Generate and replay the horizon in bounded period slabs.

        Each slab draws its own events from an ``rng.spawn`` child
        (canonical chunked draw order: sorted update window, sync
        schedule window, sorted request window), merges the three
        pre-sorted streams with one O(slab) stable run-merge
        (:func:`~repro.sim.events.merge_sorted_blocks`) and feeds
        them to the :class:`~repro.sim.fastpath.StreamingReplay`
        carry kernel.  Peak memory is the carry state plus one slab's
        tape.  Generators lacking ``draw_window_sorted`` (custom
        update processes exposing only the raw ``draw_window``
        primitive) fall back to unsorted update draws, stable-sorted
        by time before the merge.

        A workload rng that cannot ``spawn`` (a bit generator built
        on a seed sequence without spawning support) gets its slab
        children the draw-consuming way instead: one
        ``rng.integers(2⁶³ − 1)`` draw per slab, in slab order, seeds
        each child's ``SeedSequence``.  The run stays deterministic,
        but the parent rng advances by exactly ``n_slabs`` draws where
        ``spawn`` leaves it untouched.  With telemetry on, this path
        bumps the ``sim.streaming.spawn_fallback`` counter.
        """
        if int(chunk_periods) != chunk_periods or chunk_periods < 1:
            raise ValidationError(
                f"chunk_periods must be a positive integer, got "
                f"{chunk_periods}")
        if engine == "reference":
            raise ValidationError(
                "chunk_periods streams through the fastpath kernel; "
                "use engine='auto' or 'fastpath'")
        fault_free = (self._fault_plan is None
                      or self._fault_plan.is_quiet)
        kernel_faults = (None if fault_free
                         else self.fault_kernel_args())
        if not fault_free and kernel_faults is None:
            raise ValidationError(
                "chunk_periods cannot replay this fault plan "
                "(latency draws, multiple models, outage windows, a "
                "breaker, a relay topology, a gated retry policy or "
                "a non-retryable Gilbert–Elliott outcome)")
        if not hasattr(self._updates, "draw_window"):
            raise ValidationError(
                "chunk_periods requires an update generator with a "
                "draw_window(start, end) primitive")

        chunk = int(chunk_periods)
        n_slabs = int(np.ceil(n_periods / chunk))
        try:
            children = self._rng.spawn(n_slabs)
        except (AttributeError, TypeError, ValueError):
            # Hand-built bit generator without a spawnable seed
            # sequence: derive children the draw-consuming way.
            obs.counter_add("sim.streaming.spawn_fallback")
            children = [
                np.random.default_rng(np.random.SeedSequence(
                    int(self._rng.integers(np.iinfo(np.int64).max))))
                for _ in range(n_slabs)]

        streaming = StreamingReplay(
            self._catalog, self._frequencies,
            period_length=self._period_length, n_periods=n_periods,
            fault_args=kernel_faults,
            fault_time_offset=self._fault_time_offset,
            record_fault_trace=self._record_fault_trace)
        arena = ReplayArena()
        n_elements = self._catalog.n_elements
        sorted_draws = hasattr(self._updates, "draw_window_sorted")
        for slab, child in enumerate(children):
            first = slab * chunk
            last = min(first + chunk, n_periods)
            start = first * self._period_length
            end = last * self._period_length
            with obs.span("sim.generate"):
                sync_times, sync_elements = \
                    self._schedule.events_between(start, end)
                if sorted_draws:
                    update_times, update_elements = \
                        self._updates.draw_window_sorted(
                            start, end, rng=child, arena=arena)
                    access_times, access_elements = \
                        self._requests.draw_window_sorted(
                            start, end, rng=child, arena=arena)
                else:
                    update_times, update_elements = _time_sorted(
                        *self._updates.draw_window(start, end,
                                                   rng=child,
                                                   arena=arena))
                    access_times, access_elements = \
                        self._requests.draw_window(start, end,
                                                   rng=child)
                times, elements, kinds = merge_sorted_blocks(
                    update_times, update_elements,
                    sync_times, sync_elements,
                    access_times, access_elements,
                    n_elements=n_elements)
            with obs.span("sim.run"):
                streaming.feed(times, elements, kinds,
                               n_periods=last - first)
        with obs.span("sim.run"):
            result = streaming.finish()

        if contracts_enabled():
            scheduled = self._frequencies > 0.0
            granularity = float(self._catalog.sizes[scheduled].sum())
            check_sync_conservation(
                result.bandwidth_used,
                self._planned_per_period,
                n_periods,
                granularity,
                where="Simulation.run")
            if kernel_faults is not None:
                budget = kernel_faults["bandwidth_budget"]
                if budget is not None:
                    check_attempt_budget(
                        result.attempted_bandwidth,
                        budget,
                        float(np.ceil(n_periods)),
                        granularity,
                        where="Simulation.run")
        return result
