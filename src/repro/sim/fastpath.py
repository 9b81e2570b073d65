"""Vectorized replay of the simulation event tape.

:func:`replay_fastpath` consumes the *same* merged event tape the
per-event reference loop in :meth:`repro.sim.simulation.Simulation.run`
walks, and produces a :class:`~repro.sim.evaluator.SimulationResult`
that is **bit-identical** — not merely statistically equivalent — to
the reference loop's.  The random draws all happen upstream (schedule
phases, update stream, request stream), so the fault-free kernel is
pure replay: it consumes no RNG and only has to reproduce the
reference loop's floating-point operation *order*, element by element.

:func:`replay_fastpath_faulted` extends the same machinery to
*stateless per-attempt loss* — a :class:`~repro.faults.model.FaultPlan`
whose :meth:`~repro.faults.model.FaultPlan.iid_profile` is not None
(one i.i.d. model, no outages; the dispatching `Simulation.run` also
requires no breaker).  Such plans consume exactly one uniform draw
per attempt plus one jitter draw per retry, so the whole fault stream
can be pre-drawn in one vectorized pass and resolved into per-sync
attempt counts and success flags (:func:`resolve_iid_faults`); the
successful syncs are then folded through the fault-free copy-state
machine unchanged.  Stateful plans — Gilbert–Elliott chains, latency
draws (variable bitstream consumption), outage windows, breakers —
stay on the reference loop; :meth:`Simulation.run` dispatches.

:func:`replay_fastpath_ge` does the same for *single Gilbert–Elliott*
plans (:meth:`~repro.faults.model.FaultPlan.ge_profile` not None).
The chain is stateful across attempts, but its per-attempt draw shape
is fixed — one transition draw, one loss draw, one jitter draw per
retry — so :func:`resolve_ge_faults` pre-draws the pool, classifies
each draw against the four thresholds (flip-from-good, flip-from-bad,
loss-in-good, loss-in-bad) in bulk, and evolves the per-element burst
state across each element's poll sequence: a true segmented scan
(Hillis–Steele over associative state-function composition) on the
retry-free path, a tight scalar cursor walk over the precomputed bit
tables when retries or budget denials make draw consumption
data-dependent.  The chain state is threaded through explicitly
(:meth:`~repro.faults.model.GilbertElliottFaultModel.chain_states`),
so consecutive runs sharing one plan object stay bit-identical to the
reference loop's hidden ``_bad`` dict.

How the loop is vectorized
--------------------------

The tape is regrouped per element once, by an O(n) LSD radix sort of
the dense element ids (:func:`_regroup`; one 16-bit pass below 2¹⁶
ids, two below 2³²).  The permutation equals a stable argsort, so it
preserves each element's global event order (updates before syncs
before accesses at equal timestamps, courtesy of the merge).  The
per-element monitor state machine is then reconstructed with segment
operations:

* the fresh/stale flag before each event comes from the last
  update/sync strictly before it (a segmented running maximum over
  state-change positions);
* stale-run start times (``stale_since``) carry forward from each
  run-opening update by the same trick;
* fresh-time increments are computed for every event at once,
  age-integral increments for the stale-before events only (the
  rest are zero), and both are folded per element with
  :func:`numpy.bincount`.

Per-event flags in tape order (fresh before, run start, becomes
fresh, changed sync) cost a scatter per flag, so the kernels build
them only for callers that read them: the telemetry series, the
freshness ledger and the window-batch split.

Bit-identity notes (all verified by the equivalence suite):

* ``np.bincount`` accumulates its weights as an exact sequential
  left-fold per bin in input order — unlike ``np.sum`` or
  ``np.add.reduceat``, which use pairwise summation and would break
  bit-identity with the loop's ``+=``.
* The reference loop squares *scalars* (``(time - since) ** 2`` on
  ``np.float64`` goes through libm ``pow``), while the monitor's
  ``close()`` squares *arrays* (``** 2`` lowers to ``x*x``).  These
  differ in the last bit for ~0.1% of inputs, so the kernel uses
  ``np.float_power`` (bit-equal to scalar ``pow``) for per-event
  trapezoids and array ``** 2`` for the horizon flush.
* Adding the ``0.0`` increments the loop never performs is safe here:
  no accumulator can hold ``-0.0``.
* ``Generator.random(n)`` produces the same values *and* the same
  post-call state as ``n`` successive scalar ``random()`` calls, and
  ``Generator.uniform(low, high)`` consumes exactly one draw and
  equals ``low + (high - low) * random()`` bit-for-bit — which is
  what lets :func:`resolve_iid_faults` pre-draw an oversized pool,
  rewind the bit generator, and re-advance it by the exact number of
  draws the reference channel would have consumed.

The one sequential piece of the faulted path is the per-period
bandwidth ledger: how many draws a sync consumes depends on where
earlier syncs left the pool cursor and the ledger, so the cursor walk
is a tight O(n_syncs) scalar scan over precomputed attempt tables —
everything per-event and per-attempt around it (outcome draws, retry
columns, trace assembly, accounting folds, the tape replay itself)
is vectorized.

Streaming replay
----------------

:class:`StreamingReplay` runs the same copy-state machine over a
horizon fed as consecutive whole-period *slabs* instead of one tape,
so peak memory is O(slab), not O(horizon).  A :class:`ReplayCarry`
threads every per-element quantity the kernel otherwise derives from
"start of tape" across slab boundaries: the fresh flag, the open
stale-run start, the last event time, the source version counter and
last-polled version, and the partially folded accumulators.  Because
``np.bincount`` folds weights per bin as an exact sequential left
fold in input order, prepending each element's carried accumulator as
that bin's first weight continues the fold bit-exactly — left folds
compose — so slab-by-slab replay of a tape is bit-identical to
one-shot replay of its concatenation, including telemetry, ledger,
fault accounting and post-run rng/chain state.  Fault resolution runs
per slab on the same rng (each slab's pool starts exactly where the
previous slab's consumption ended); slabs must split at whole-period
boundaries so the resolvers' per-period bandwidth ledger resets in
the same places the one-shot walk resets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.contracts import (
    check_attempt_budget,
    check_sync_conservation,
    contracts_enabled,
)
from repro.errors import SimulationError
from repro.faults.model import GilbertElliottFaultModel, PollOutcome
from repro.faults.retry import RetryPolicy
from repro.numerics.sorting import id_radix_passes, stable_id_argsort
from repro.obs import registry as obs
from repro.sim.events import EventKind
from repro.sim.evaluator import SimulationResult
from repro.workloads.catalog import Catalog

__all__ = ["ReplayArena", "ReplayCarry", "StreamingReplay",
           "replay_fastpath", "replay_fastpath_faulted",
           "replay_fastpath_ge", "replay_window_tapes",
           "resolve_ge_faults", "resolve_iid_faults",
           "resolve_tape_faults"]


def _segment_starts(elements_sorted: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """First-event flag and per-event segment-start position.

    Args:
        elements_sorted: Element ids after the stable per-element sort.

    Returns:
        ``(new_segment, segment_start_of)`` — a boolean mask of
        segment-opening events and, per event, the global position of
        its segment's first event.
    """
    n_events = elements_sorted.shape[0]
    new_segment = np.empty(n_events, dtype=bool)
    new_segment[0] = True
    np.not_equal(elements_sorted[1:], elements_sorted[:-1],
                 out=new_segment[1:])
    start_positions = np.flatnonzero(new_segment)
    segment_ids = np.cumsum(new_segment) - 1
    return new_segment, start_positions[segment_ids]


def _shift_within_segment(values: np.ndarray, new_segment: np.ndarray,
                          fill: float) -> np.ndarray:
    """Previous event's value within each segment (``fill`` at starts)."""
    shifted = np.empty_like(values)
    shifted[0] = fill
    shifted[1:] = values[:-1]
    shifted[new_segment] = fill
    return shifted


def _last_position_at_or_before(candidate_positions: np.ndarray,
                                segment_start_of: np.ndarray
                                ) -> np.ndarray:
    """Segmented running maximum of marked positions (−1 = none yet).

    ``candidate_positions`` holds each event's own global position
    where the event is a mark and −1 elsewhere; the result holds, per
    event, the latest marked position at or before it *within its
    segment*.
    """
    running = np.maximum.accumulate(candidate_positions)
    return np.where(running >= segment_start_of, running, -1)


def _state_changes(is_state_change: np.ndarray, positions: np.ndarray,
                   segment_start_of: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Latest in-segment update/sync at or before, and strictly
    before, each event (−1 = none yet), as regrouped positions."""
    last = _last_position_at_or_before(
        np.where(is_state_change, positions, -1), segment_start_of)
    previous = np.empty_like(last)
    previous[0] = -1
    previous[1:] = last[:-1]
    return last, np.where(previous >= segment_start_of, previous, -1)


def _age_increments(time_of: np.ndarray, previous_time: np.ndarray,
                    stale_positions: np.ndarray,
                    stale_since: np.ndarray) -> np.ndarray:
    """Per-event age-integral increments, in clock units².

    Only stale-before events accrue age, so the trapezoid is taken
    at ``stale_positions`` alone and scattered into zeros (the fold
    adds the same 0.0 a masked full-length form would).  The
    reference loop squares np.float64 *scalars* (libm pow);
    np.float_power is the array op that matches it bit-for-bit,
    where array ** 2 (x*x) would not.
    """
    end_offset = time_of[stale_positions] - stale_since
    start_offset = previous_time[stale_positions] - stale_since
    increments = np.zeros(time_of.shape[0])
    increments[stale_positions] = 0.5 * (
        np.float_power(end_offset, 2.0)
        - np.float_power(start_offset, 2.0))
    return increments


@dataclass
class _Regrouped:
    """A nonempty tape regrouped per element, tape order kept within.

    ``order`` (int32) maps each regrouped position to its tape
    position; the ``*_of`` arrays are the tape columns in regrouped
    order.  A *segment* is one element's run of events:
    ``new_segment`` flags its first event, ``segment_start_of`` holds
    each event's segment start (int32), and ``starts``/``ends``/
    ``present`` hold each segment's first and last position and its
    element id.
    """

    order: np.ndarray
    element_of: np.ndarray
    time_of: np.ndarray
    kind_of: np.ndarray
    new_segment: np.ndarray
    segment_start_of: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    present: np.ndarray


def _regroup(times: np.ndarray, elements: np.ndarray,
             kinds: np.ndarray) -> _Regrouped:
    """Regroup a nonempty tape per element with the radix permutation.

    The permutation equals a stable ``argsort`` of the element ids, so
    every element keeps its global event order (updates before syncs
    before accesses at equal timestamps, courtesy of the merge), and
    it costs O(n): one or two 16-bit radix passes
    (:func:`~repro.numerics.sorting.stable_id_argsort`).  With
    telemetry on, each call observes ``sim.regroup.events`` (events
    permuted) and ``sim.regroup.radix_passes`` — histograms, not
    counters, so the counter set stays identical to the reference
    loop's and to one-shot replay of a slab-split tape.
    """
    n_events = int(times.shape[0])
    order = stable_id_argsort(elements)
    element_of = elements[order]
    new_segment, segment_start_of = _segment_starts(element_of)
    starts = np.flatnonzero(new_segment)
    ends = np.append(starts[1:] - 1, n_events - 1)
    if obs.telemetry_enabled():
        obs.observe("sim.regroup.events", n_events)
        # Sorted, so the last id is the largest.
        obs.observe("sim.regroup.radix_passes",
                    id_radix_passes(int(element_of[-1])))
    return _Regrouped(
        order=order, element_of=element_of, time_of=times[order],
        kind_of=kinds[order], new_segment=new_segment,
        segment_start_of=segment_start_of.astype(np.int32, copy=False),
        starts=starts, ends=ends, present=element_of[starts])


def _tape_order_flags(order: np.ndarray, fresh_before: np.ndarray,
                      run_start: np.ndarray, becomes_fresh: np.ndarray,
                      changed_positions: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Scatter regrouped per-event flags back to tape order.

    Returns ``(fresh_before, run_start, becomes_fresh, changed_sync)``
    in tape order, for the telemetry series, the ledger and the
    window-batch split; ``changed_positions`` are the regrouped
    positions of syncs that found a change.
    """
    n_events = order.shape[0]

    def scatter(values: np.ndarray) -> np.ndarray:
        scattered = np.empty(n_events, dtype=bool)
        scattered[order] = values
        return scattered

    changed_sync = np.zeros(n_events, dtype=bool)
    changed_sync[order[changed_positions]] = True
    return (scatter(fresh_before), scatter(run_start),
            scatter(becomes_fresh), changed_sync)


@dataclass
class _TapeReplay:
    """Everything the copy-state machine measures from one tape.

    Per-element arrays have one entry per element; the ``*_global``
    flag arrays have one entry per tape event in *tape* order, and
    are None for an empty tape or when the caller did not request
    them (``tape_flags=False``).  Shared by the fault-free, faulted
    and window-batched assembly paths.
    """

    element_freshness: np.ndarray
    element_age: np.ndarray
    poll_counts: np.ndarray
    changed_poll_counts: np.ndarray
    access_counts: np.ndarray
    n_updates: int
    n_syncs: int
    n_accesses: int
    useful_syncs: int
    fresh_accesses: int
    bandwidth_used: float
    fresh_before_global: np.ndarray | None
    run_start_global: np.ndarray | None
    becomes_fresh_global: np.ndarray | None
    changed_sync_global: np.ndarray | None


def _replay_tape(n_elements: int, sizes: np.ndarray,
                 times: np.ndarray, elements: np.ndarray,
                 kinds: np.ndarray, *, horizon: float,
                 tape_flags: bool = False) -> _TapeReplay:
    """Replay one merged event tape through the segment kernel.

    Args:
        n_elements: Number of mirrored elements (tape element ids may
            be tiled copies, as in the window batch path).
        sizes: Per-element transfer sizes, in size units; shape
            ``(n_elements,)``.
        times: Merged event times, globally time-ordered, in clock
            units.
        elements: Element id per merged event.
        kinds: :class:`~repro.sim.events.EventKind` per merged event.
        horizon: Total simulated clock time per element, in clock
            units.
        tape_flags: Whether to scatter the per-event flags back to
            tape order (the ``*_global`` fields); only the telemetry
            series, the ledger and the window split read them.

    Returns:
        The :class:`_TapeReplay` measurements, bit-identical to the
        reference loop's for the same tape.
    """
    n_events = int(times.shape[0])
    update_kind = int(EventKind.UPDATE)
    sync_kind = int(EventKind.SYNC)
    flags: tuple[np.ndarray | None, ...] = (None, None, None, None)

    if n_events:
        # Structure-of-arrays dtype discipline: event counts fit
        # int32 by a wide margin (a 10⁶-element run is a few million
        # events), and halving every positional index array is what
        # keeps the 10⁶-element replay inside the CI memory ceiling.
        if n_events >= np.iinfo(np.int32).max:
            raise SimulationError(
                f"tape of {n_events} events overflows int32 positions")
        tape = _regroup(times, elements, kinds)
        element_of = tape.element_of
        time_of = tape.time_of
        kind_of = tape.kind_of
        segment_start_of = tape.segment_start_of
        ends = tape.ends
        present = tape.present
        positions = np.arange(n_events, dtype=np.int32)

        previous_time = _shift_within_segment(time_of, tape.new_segment,
                                              0.0)
        if (time_of < previous_time).any():
            raise SimulationError("event tape is not time-ordered")
        elapsed = time_of - previous_time

        is_update = kind_of == update_kind
        is_sync = kind_of == sync_kind
        is_access = ~is_update & ~is_sync

        # --- monitor state before each event -------------------------
        # The fresh flag before event k is decided by the last update
        # or sync strictly before k in its segment (fresh initially).
        last_state_change, previous_state_change = _state_changes(
            is_update | is_sync, positions, segment_start_of)
        fresh_before = ((previous_state_change < 0)
                        | (kind_of[np.maximum(previous_state_change, 0)]
                           == sync_kind))

        # The first unseen update opens a stale run and pins
        # stale_since; later updates extend it without resetting.
        run_start = is_update & fresh_before
        run_start_positions = np.where(run_start, positions, -1)
        # Inclusive-at-k is safe: a run-starting event is itself fresh
        # and never reads `since`.
        since_position = _last_position_at_or_before(
            run_start_positions, segment_start_of)

        # --- per-event increments, folded per element ----------------
        stale_positions = np.flatnonzero(~fresh_before)
        stale_since = time_of[np.maximum(
            since_position[stale_positions], 0)]
        age_increment = _age_increments(time_of, previous_time,
                                        stale_positions, stale_since)
        elapsed[stale_positions] = 0.0
        fresh_time = np.bincount(element_of, weights=elapsed,
                                 minlength=n_elements)
        age_integral = np.bincount(element_of, weights=age_increment,
                                   minlength=n_elements)

        # --- final state per element, for the horizon flush ----------
        last_time = np.zeros(n_elements)
        last_time[present] = time_of[ends]
        final_state_change = last_state_change[ends]
        fresh_final = np.ones(n_elements, dtype=bool)
        fresh_final[present] = (
            (final_state_change < 0)
            | (kind_of[np.maximum(final_state_change, 0)] == sync_kind))
        final_since_position = since_position[ends]
        stale_since_final = np.zeros(n_elements)
        stale_since_final[present] = np.where(
            final_since_position >= 0,
            time_of[np.maximum(final_since_position, 0)], 0.0)

        # --- mirror bookkeeping: polls, changed polls, accesses ------
        # Version arithmetic is integer-exact: the source version of
        # an element at any event equals its update count so far, and
        # a poll finds a change iff that count grew since its previous
        # poll (the copy starts at version 0 = zero updates).
        updates_so_far = np.cumsum(is_update, dtype=np.int32)
        updates_before = ((updates_so_far - is_update)
                          - (updates_so_far[segment_start_of]
                             - is_update[segment_start_of]))
        sync_positions = np.flatnonzero(is_sync)
        sync_elements = element_of[sync_positions]
        sync_versions = updates_before[sync_positions]
        previous_versions = np.zeros_like(sync_versions)
        if sync_versions.shape[0]:
            previous_versions[1:] = sync_versions[:-1]
            first_poll = np.empty(sync_versions.shape[0], dtype=bool)
            first_poll[0] = True
            np.not_equal(sync_elements[1:], sync_elements[:-1],
                         out=first_poll[1:])
            previous_versions[first_poll] = 0
        changed = sync_versions > previous_versions

        poll_counts = np.bincount(
            sync_elements, minlength=n_elements).astype(np.int64)
        changed_poll_counts = np.bincount(
            sync_elements[changed],
            minlength=n_elements).astype(np.int64)
        useful_syncs = int(np.count_nonzero(changed))
        n_syncs = int(sync_positions.shape[0])
        n_updates = int(np.count_nonzero(is_update))

        access_positions = np.flatnonzero(is_access)
        access_elements = element_of[access_positions]
        # An access sees fresh data iff the copy version equals the
        # source version, which is exactly the monitor's flag.
        access_fresh = fresh_before[access_positions]
        n_accesses = int(access_positions.shape[0])
        fresh_accesses = int(np.count_nonzero(access_fresh))
        access_counts = np.bincount(
            access_elements, minlength=n_elements).astype(np.int64)

        # Bandwidth is a sequential float fold over syncs in *global*
        # time order (the mirror accumulates across elements as the
        # tape plays); a single-bin bincount reproduces the fold.
        global_sync = kinds == sync_kind
        sync_sizes = sizes[elements[global_sync]]
        bandwidth_used = float(np.bincount(
            np.zeros(sync_sizes.shape[0], dtype=np.intp),
            weights=sync_sizes, minlength=1)[0])

        if tape_flags:
            flags = _tape_order_flags(
                tape.order, fresh_before, run_start,
                is_sync & ~fresh_before, sync_positions[changed])
    else:  # an empty tape: every copy stays fresh to the horizon
        fresh_time = np.zeros(n_elements)
        age_integral = np.zeros(n_elements)
        last_time = np.zeros(n_elements)
        fresh_final = np.ones(n_elements, dtype=bool)
        stale_since_final = np.zeros(n_elements)
        poll_counts = np.zeros(n_elements, dtype=np.int64)
        changed_poll_counts = np.zeros(n_elements, dtype=np.int64)
        access_counts = np.zeros(n_elements, dtype=np.int64)
        useful_syncs = n_syncs = n_updates = 0
        n_accesses = fresh_accesses = 0
        bandwidth_used = 0.0

    # --- horizon flush: mirrors FreshnessMonitor.close() exactly ----
    # (array ** 2 here on purpose — close() squares arrays).
    remaining = horizon - last_time
    if (remaining < -1e-9).any():
        raise SimulationError("events were recorded beyond the horizon")
    fresh_time += np.maximum(remaining, 0.0) * fresh_final
    stale = ~fresh_final & (remaining > 0.0)
    if stale.any():
        since = stale_since_final[stale]
        start = last_time[stale]
        age_integral[stale] += 0.5 * (
            (horizon - since) ** 2 - (start - since) ** 2)

    return _TapeReplay(
        element_freshness=fresh_time / horizon,
        element_age=age_integral / horizon,
        poll_counts=poll_counts,
        changed_poll_counts=changed_poll_counts,
        access_counts=access_counts,
        n_updates=n_updates,
        n_syncs=n_syncs,
        n_accesses=n_accesses,
        useful_syncs=useful_syncs,
        fresh_accesses=fresh_accesses,
        bandwidth_used=bandwidth_used,
        fresh_before_global=flags[0],
        run_start_global=flags[1],
        becomes_fresh_global=flags[2],
        changed_sync_global=flags[3],
    )


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_fastpath(catalog: Catalog, frequencies: np.ndarray,
                    times: np.ndarray, elements: np.ndarray,
                    kinds: np.ndarray, *, horizon: float,
                    period_length: float, n_periods: float,
                    ledger_time_offset: float = 0.0
                    ) -> SimulationResult:
    """Replay a merged fault-free event tape without the Python loop.

    Args:
        catalog: The simulated workload.
        frequencies: The schedule's per-element sync frequencies, in
            syncs per period.
        times: Merged event times, globally time-ordered.
        elements: Element id per merged event.
        kinds: :class:`~repro.sim.events.EventKind` per merged event.
        horizon: Total simulated clock time.
        period_length: Clock length of one sync period.
        n_periods: Periods simulated (may be fractional).
        ledger_time_offset: Added to event times when feeding the
            freshness ledger, in clock units (whole periods) — the
            quiet-path analogue of the faulted kernel's
            ``fault_time_offset``, so per-period manager runs stamp
            the ledger on the global clock.

    Returns:
        A :class:`SimulationResult` bit-identical to the reference
        loop's for the same tape.
    """
    sizes = np.asarray(catalog.sizes, dtype=float)
    telemetry_on = obs.telemetry_enabled()
    replay = _replay_tape(catalog.n_elements, sizes, times, elements,
                          kinds, horizon=horizon,
                          tape_flags=telemetry_on)
    p = catalog.access_probabilities
    perceived_by_accesses = (
        replay.fresh_accesses / replay.n_accesses
        if replay.n_accesses
        else float(p @ replay.element_freshness))

    if telemetry_on:
        _emit_period_series(
            times, elements, kinds, sizes,
            replay.fresh_before_global, replay.run_start_global,
            replay.becomes_fresh_global,
            catalog.n_elements, period_length=period_length,
            n_periods=n_periods, planned=float(sizes @ frequencies))
        _emit_monitor_close(replay.element_freshness,
                            replay.element_age, replay.n_accesses,
                            replay.fresh_accesses, horizon)
        _emit_ledger(times, elements, kinds,
                     replay.run_start_global,
                     time_offset=ledger_time_offset)
        obs.counter_add("sim.runs")
        obs.counter_add("sim.fastpath_runs")
        obs.counter_add("sim.engine.fastpath")
        obs.counter_add("sim.syncs", replay.n_syncs)
        obs.counter_add("sim.useful_syncs", replay.useful_syncs)
        obs.counter_add("sim.updates", replay.n_updates)
        obs.counter_add("sim.accesses", replay.n_accesses)
        obs.gauge_set("sim.bandwidth_used", replay.bandwidth_used)
        obs.gauge_set("sim.monitored_perceived_freshness",
                      float(perceived_by_accesses))
        obs.gauge_set("sim.monitored_general_freshness",
                      float(replay.element_freshness.mean()))

    return SimulationResult(
        catalog=catalog,
        frequencies=frequencies,
        horizon=horizon,
        period_length=period_length,
        n_updates=replay.n_updates,
        n_syncs=replay.n_syncs,
        n_accesses=replay.n_accesses,
        useful_syncs=replay.useful_syncs,
        bandwidth_used=replay.bandwidth_used,
        monitored_perceived_freshness=float(perceived_by_accesses),
        monitored_time_perceived=float(p @ replay.element_freshness),
        monitored_general_freshness=float(
            replay.element_freshness.mean()),
        element_time_freshness=replay.element_freshness,
        element_time_age=replay.element_age,
        monitored_perceived_age=float(p @ replay.element_age),
        access_counts=replay.access_counts,
        poll_counts=replay.poll_counts,
        changed_poll_counts=replay.changed_poll_counts,
        attempted_polls=replay.n_syncs,
        attempted_bandwidth=replay.bandwidth_used,
    )


@dataclass
class FaultResolution:
    """Per-sync outcome of the vectorized i.i.d. fault resolution.

    Arrays have one entry per *scheduled* sync in tape order.

    Attributes:
        attempts: Attempts made per sync (0 = budget-denied outright).
        success: Whether the sync's final attempt succeeded.
        denied: Whether the sync was denied before its first attempt.
        offsets: Each sync's first draw position in the pre-drawn
            pool (meaningful only where ``attempts > 0``).
        consumed: RNG draws consumed per sync (``2·attempts − 1``
            for i.i.d. plans, ``3·attempts − 1`` for Gilbert–Elliott
            plans whose attempts each take a transition *and* a loss
            draw; 0 for denied syncs).
        denied_retries: Retries refused by the period budget, total.
        trace: The reference channel's per-attempt trace —
            ``(attempt_time, element, outcome_value)`` — or None when
            not recorded.
    """

    attempts: np.ndarray
    success: np.ndarray
    denied: np.ndarray
    offsets: np.ndarray
    consumed: np.ndarray
    denied_retries: int
    trace: list[tuple[float, int, str]] | None


# seedflow: pair=repro.faults.channel.SyncChannel.sync
def resolve_iid_faults(sync_times: np.ndarray,
                       sync_elements: np.ndarray,
                       sizes: np.ndarray, *,
                       failure_probability: float,
                       failure_outcome: PollOutcome,
                       retry_policy: RetryPolicy | None,
                       bandwidth_budget: float | None,
                       period_length: float,
                       rng: np.random.Generator,
                       record_trace: bool = False
                       ) -> FaultResolution:
    """Resolve every scheduled sync's fault outcome in one pass.

    Pre-draws an oversized uniform pool from ``rng`` (one vectorized
    call), classifies every possible attempt start position into
    "first success at attempt k / no success", then walks the syncs
    once to place each sync's draw cursor and charge its attempts
    against the per-period bandwidth ledger — the only inherently
    sequential part, a tight O(n_syncs) scalar scan.  Finally the bit
    generator is rewound and re-advanced by exactly the number of
    draws the reference :class:`~repro.faults.channel.SyncChannel`
    would have consumed, so downstream draws see an identical stream.

    Args:
        sync_times: Scheduled sync times *on the fault clock* (local
            time plus any fault offset), in clock units, nondecreasing.
        sync_elements: Element index per scheduled sync.
        sizes: Per-element transfer sizes, in size units.
        failure_probability: Per-attempt failure probability in
            ``[0, 1]`` (dimensionless).
        failure_outcome: Outcome reported on a failed attempt (must
            be retryable; the dispatcher guarantees this).
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units
            per period, or None to disable the ledger.
        period_length: Clock length of one budget period, > 0.
        rng: The fault generator (``fault_rng`` or the shared
            workload generator), advanced exactly as the reference
            channel would.
        record_trace: When True, build the reference-identical
            per-attempt trace (costs a Python loop over attempts).

    Returns:
        The per-sync :class:`FaultResolution`.
    """
    m = int(sync_times.shape[0])
    max_attempts = (1 if retry_policy is None
                    else retry_policy.max_retries + 1)
    width = 2 * max_attempts - 1

    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return FaultResolution(
            attempts=empty, success=np.zeros(0, dtype=bool),
            denied=np.zeros(0, dtype=bool), offsets=empty.copy(),
            consumed=empty.copy(), denied_retries=0,
            trace=[] if record_trace else None)

    state = rng.bit_generator.state
    pool = rng.random(m * width + width)
    pool_span = m * width
    # ok_cols[t, k]: would the (k+1)-th attempt of a sync whose first
    # draw sits at pool position t succeed?  Attempt draws are spaced
    # two apart because each retry interleaves one jitter draw.
    fail = pool < failure_probability
    ok_cols = np.empty((pool_span + 1, max_attempts), dtype=bool)
    for k in range(max_attempts):
        ok_cols[:, k] = ~fail[2 * k: 2 * k + pool_span + 1]
    any_ok = ok_cols.any(axis=1)
    # Attempts the retry policy would allow from each position: stop
    # at the first success, else exhaust all max_attempts columns.
    desired = np.where(any_ok, ok_cols.argmax(axis=1) + 1,
                       max_attempts)

    # --- the ledger walk (the one sequential piece) ------------------
    desired_list = desired.tolist()
    any_ok_list = any_ok.tolist()
    size_list = sizes[sync_elements].tolist()
    period_list = (sync_times / period_length).astype(np.int64).tolist()
    out_attempts = [0] * m
    out_success = [False] * m
    out_offsets = [0] * m
    denied_retries = 0
    cursor = 0
    current_period = 0
    spent = 0.0
    budget = bandwidth_budget
    for i in range(m):
        period = period_list[i]
        if period > current_period:
            current_period = period
            spent = 0.0
        size = size_list[i]
        if budget is not None and spent + size > budget:
            continue  # denied outright: zero attempts, zero draws
        goal = desired_list[cursor]
        out_offsets[i] = cursor
        if budget is None:
            attempts = goal
        else:
            attempts = 1
            spent += size
            while attempts < goal:
                if spent + size > budget:
                    denied_retries += 1
                    break
                attempts += 1
                spent += size
        out_attempts[i] = attempts
        out_success[i] = any_ok_list[cursor] and attempts == goal
        cursor += 2 * attempts - 1

    attempts_arr = np.asarray(out_attempts, dtype=np.int64)
    success_arr = np.asarray(out_success, dtype=bool)
    offsets_arr = np.asarray(out_offsets, dtype=np.int64)
    made = attempts_arr > 0
    consumed_arr = np.where(made, 2 * attempts_arr - 1, 0)

    # Rewind the oversized pool draw, then advance by exactly what the
    # reference channel consumed (array and scalar draws advance the
    # PCG64 state identically).
    rng.bit_generator.state = state
    if cursor:
        # Data-dependent on purpose: re-advances the rewound stream
        # by exactly the reference channel's consumption, so this
        # branch *restores* draw parity rather than breaking it.
        rng.random(cursor)  # freshlint: disable=FL013

    trace: list[tuple[float, int, str]] | None = None
    if record_trace:
        trace = _build_trace(
            sync_times, sync_elements, attempts_arr, success_arr,
            offsets_arr, pool, failure_outcome=failure_outcome,
            retry_policy=retry_policy)

    return FaultResolution(
        attempts=attempts_arr, success=success_arr,
        denied=~made, offsets=offsets_arr, consumed=consumed_arr,
        denied_retries=denied_retries, trace=trace)


def _build_trace(sync_times: np.ndarray, sync_elements: np.ndarray,
                 attempts: np.ndarray, success: np.ndarray,
                 offsets: np.ndarray, pool: np.ndarray, *,
                 failure_outcome: PollOutcome,
                 retry_policy: RetryPolicy | None,
                 draw_stride: int = 2
                 ) -> list[tuple[float, int, str]]:
    """Reconstruct the reference channel's per-attempt trace.

    Retry timestamps replay the decorrelated-jitter chain: each delay
    is ``min(base + (max(3·prev, base) − base) · u, max_delay)`` with
    ``u`` the jitter draw interleaved between the attempt draws —
    bit-equal to ``rng.uniform(base, anchor)`` in the reference.
    ``draw_stride`` is the pool distance between consecutive attempts
    of one sync: 2 for i.i.d. plans (outcome + jitter), 3 for
    Gilbert–Elliott (transition + loss + jitter); the jitter draw
    always sits last, at ``offset + stride·k + stride − 1``.
    """
    trace: list[tuple[float, int, str]] = []
    ok_value = PollOutcome.OK.value
    fail_value = failure_outcome.value
    base = retry_policy.base_delay if retry_policy is not None else 0.0
    cap = retry_policy.max_delay if retry_policy is not None else 0.0
    pool_list = pool.tolist()
    times_list = sync_times.tolist()
    elements_list = sync_elements.tolist()
    attempts_list = attempts.tolist()
    success_list = success.tolist()
    offsets_list = offsets.tolist()
    for i in range(len(times_list)):
        n_attempts = attempts_list[i]
        if n_attempts == 0:
            continue
        element = int(elements_list[i])
        time = times_list[i]
        offset = offsets_list[i]
        delay = 0.0
        for k in range(n_attempts):
            last = k == n_attempts - 1
            value = (ok_value if last and success_list[i]
                     else fail_value)
            trace.append((time, element, value))
            if not last:
                jitter = pool_list[offset + draw_stride * k
                                   + draw_stride - 1]
                anchor = max(3.0 * delay, base)
                delay = min(base + (anchor - base) * jitter, cap)
                time += delay
    return trace


#: One ``faults.ge_scan.passes`` bucket per pass count: a scan over
#: fewer than 2³¹ syncs makes at most 31 passes.
_GE_SCAN_PASS_BUCKETS = tuple(float(count) for count in range(32))


def _ge_scan_states(sync_elements: np.ndarray, flip_good: np.ndarray,
                    flip_bad: np.ndarray, initial_bad: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-attempt chain states for the retry-free GE fast route.

    With exactly one attempt per sync, sync ``i``'s transition draw
    sits at pool position ``2·i`` and the chain for each element
    evolves as a composition of two-state transition functions — an
    associative operator, so a Hillis–Steele inclusive scan over the
    element-sorted sync sequence replaces the sequential walk.  Each
    per-sync function is encoded as the pair *(state-if-entered-good,
    state-if-entered-bad)*; composing ``g ∘ f`` routes ``g`` through
    ``f``'s outputs with two ``np.where`` selects.  The scan stops
    once its shift reaches the longest per-element run: past that,
    no position has a predecessor inside its own segment and every
    pass would compose the identity.  That is ⌈log₂(longest run)⌉
    passes, not ⌈log₂(m)⌉; with telemetry on, the count is observed
    as the ``faults.ge_scan.passes`` histogram, one bucket per count
    (a histogram, not a counter, so the counter set stays identical
    to the reference loop's).

    Args:
        sync_elements: Element index per sync, tape order.
        flip_good: Whether each pool draw flips a good-state chain.
        flip_bad: Whether each pool draw flips a bad-state chain.
        initial_bad: Per-element chain state entering the batch.

    Returns:
        ``(order, state_after_sorted, final_bad)`` — the stable
        element sort permutation, each sync's post-transition state in
        sorted order, and the per-element state after the batch.
    """
    m = int(sync_elements.shape[0])
    # Pool positions run to 2·m: widen the int32 permutation first.
    order = stable_id_argsort(sync_elements).astype(np.int64)
    element_sorted = sync_elements[order]
    transition_at = order * 2
    # out-state of this sync's transition, given the in-state:
    out_if_good = flip_good[transition_at]
    out_if_bad = ~flip_bad[transition_at]
    new_segment, segment_start_of = _segment_starts(element_sorted)
    segment_starts = np.flatnonzero(new_segment)
    segment_ends = np.append(segment_starts[1:] - 1, m - 1)
    longest = int((segment_ends - segment_starts).max()) + 1
    positions = np.arange(m, dtype=np.int64)
    shift = 1
    passes = 0
    while shift < longest:
        # Compose each position's aggregate with the aggregate
        # `shift` places back (when still inside the same segment):
        # new = current ∘ previous.
        in_segment = positions - shift >= segment_start_of
        prev_good = np.empty_like(out_if_good)
        prev_good[:shift] = False
        prev_good[shift:] = out_if_good[:-shift]
        prev_bad = np.empty_like(out_if_bad)
        prev_bad[:shift] = False
        prev_bad[shift:] = out_if_bad[:-shift]
        composed_good = np.where(
            in_segment, np.where(prev_good, out_if_bad, out_if_good),
            out_if_good)
        composed_bad = np.where(
            in_segment, np.where(prev_bad, out_if_bad, out_if_good),
            out_if_bad)
        out_if_good, out_if_bad = composed_good, composed_bad
        shift <<= 1
        passes += 1
    if obs.telemetry_enabled():
        obs.observe("faults.ge_scan.passes", passes,
                    _GE_SCAN_PASS_BUCKETS)
    state_after = np.where(initial_bad[element_sorted],
                           out_if_bad, out_if_good)
    final_bad = initial_bad.copy()
    final_bad[element_sorted[segment_ends]] = state_after[segment_ends]
    return order, state_after, final_bad


# seedflow: pair=repro.faults.channel.SyncChannel.sync
def resolve_ge_faults(sync_times: np.ndarray,
                      sync_elements: np.ndarray,
                      sizes: np.ndarray, *,
                      p_good_to_bad: float,
                      p_bad_to_good: float,
                      loss_good: float,
                      loss_bad: float,
                      failure_outcome: PollOutcome,
                      initial_bad: np.ndarray,
                      retry_policy: RetryPolicy | None,
                      bandwidth_budget: float | None,
                      period_length: float,
                      rng: np.random.Generator,
                      record_trace: bool = False
                      ) -> tuple[FaultResolution, np.ndarray]:
    """Resolve every sync's fate under a Gilbert–Elliott channel.

    The reference channel consumes, per attempt, one transition draw
    (compared against the current state's flip probability) and one
    loss draw (compared against the new state's loss probability),
    plus one jitter draw per retry — a fixed shape, so the whole
    stream is pre-drawn in one call and classified against all four
    thresholds in bulk.  What remains sequential is only the chain
    itself.  On the retry-free, denial-free route that sequence is an
    associative function composition and runs as a segmented scan
    (:func:`_ge_scan_states`); otherwise a tight O(total attempts)
    cursor walk over the precomputed bit tables places each sync's
    draws and charges the period ledger, exactly like the i.i.d.
    resolver.  The bit generator is then rewound and re-advanced by
    the reference channel's exact consumption.

    Args:
        sync_times: Scheduled sync times on the fault clock, in clock
            units, nondecreasing.
        sync_elements: Element index per scheduled sync.
        sizes: Per-element transfer sizes, in size units.
        p_good_to_bad: Per-attempt flip probability out of good.
        p_bad_to_good: Per-attempt flip probability out of bad.
        loss_good: Loss probability in the good state.
        loss_bad: Loss probability in the bad state.
        failure_outcome: Outcome reported on a failed attempt (must
            be retryable; the dispatcher guarantees this).
        initial_bad: Per-element chain state entering this batch,
            shape ``(n_elements,)``, dtype bool; never mutated.
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units
            per period, or None to disable the ledger.
        period_length: Clock length of one budget period, > 0.
        rng: The fault generator, advanced exactly as the reference
            channel would.
        record_trace: When True, build the reference-identical
            per-attempt trace.

    Returns:
        ``(resolution, final_bad)`` — the per-sync
        :class:`FaultResolution` and the per-element chain state
        after the batch, for the caller to commit back into the
        model (:meth:`~repro.faults.model.GilbertElliottFaultModel.
        set_chain_states`).
    """
    m = int(sync_times.shape[0])
    max_attempts = (1 if retry_policy is None
                    else retry_policy.max_retries + 1)
    width = 3 * max_attempts - 1
    final_bad = np.asarray(initial_bad, dtype=bool).copy()

    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return FaultResolution(
            attempts=empty, success=np.zeros(0, dtype=bool),
            denied=np.zeros(0, dtype=bool), offsets=empty.copy(),
            consumed=empty.copy(), denied_retries=0,
            trace=[] if record_trace else None), final_bad

    state = rng.bit_generator.state
    pool = rng.random(m * width + width)
    flip_good = pool < p_good_to_bad
    flip_bad = pool < p_bad_to_good
    fail_good = pool < loss_good
    fail_bad = pool < loss_bad

    scan_route = max_attempts == 1
    if scan_route and bandwidth_budget is not None:
        # The scan needs every sync to make its one attempt.  A
        # denial in period P happens iff the period's sequential
        # spend fold exceeds B at some prefix; spends are
        # nonnegative, so that is iff the period *total* (the same
        # left-fold, via bincount) exceeds B.  When any period can
        # deny, fall through to the exact ledger walk.
        period_index = (sync_times / period_length).astype(np.int64)
        period_index -= int(period_index[0])
        period_spend = np.bincount(period_index,
                                   weights=sizes[sync_elements])
        scan_route = bool((period_spend <= bandwidth_budget).all())

    denied_retries = 0
    if scan_route:
        # Retry-free and denial-free: sync i's draws sit at pool
        # positions 2i (transition) and 2i+1 (loss), unconditionally.
        order, state_after, final_bad = _ge_scan_states(
            sync_elements, flip_good, flip_bad, final_bad)
        loss_at = order * 2 + 1
        failed_sorted = np.where(state_after, fail_bad[loss_at],
                                 fail_good[loss_at])
        success_arr = np.empty(m, dtype=bool)
        success_arr[order] = ~failed_sorted
        attempts_arr = np.ones(m, dtype=np.int64)
        offsets_arr = np.arange(m, dtype=np.int64) * 2
        consumed_arr = np.full(m, 2, dtype=np.int64)
        cursor = 2 * m
    else:
        flip_good_list = flip_good.tolist()
        flip_bad_list = flip_bad.tolist()
        fail_good_list = fail_good.tolist()
        fail_bad_list = fail_bad.tolist()
        size_list = sizes[sync_elements].tolist()
        period_list = (sync_times
                       / period_length).astype(np.int64).tolist()
        element_list = sync_elements.tolist()
        bad_list = final_bad.tolist()
        out_attempts = [0] * m
        out_success = [False] * m
        out_offsets = [0] * m
        cursor = 0
        current_period = 0
        spent = 0.0
        budget = bandwidth_budget
        for i in range(m):
            period = period_list[i]
            if period > current_period:
                current_period = period
                spent = 0.0
            size = size_list[i]
            if budget is not None and spent + size > budget:
                continue  # denied outright: zero attempts, zero draws
            element = element_list[i]
            bad = bad_list[element]
            out_offsets[i] = cursor
            attempts = 0
            success = False
            draw = cursor
            while True:
                # Transition first (flip probability depends on the
                # in-state), then the loss draw against the new state
                # — the reference model's exact order.
                bad = ((not flip_bad_list[draw]) if bad
                       else flip_good_list[draw])
                attempts += 1
                if budget is not None:
                    spent += size
                if not (fail_bad_list[draw + 1] if bad
                        else fail_good_list[draw + 1]):
                    success = True
                    break
                if attempts >= max_attempts:
                    break
                if budget is not None and spent + size > budget:
                    denied_retries += 1
                    break
                draw += 3
            bad_list[element] = bad
            out_attempts[i] = attempts
            out_success[i] = success
            cursor += 3 * attempts - 1
        attempts_arr = np.asarray(out_attempts, dtype=np.int64)
        success_arr = np.asarray(out_success, dtype=bool)
        offsets_arr = np.asarray(out_offsets, dtype=np.int64)
        consumed_arr = np.where(attempts_arr > 0,
                                3 * attempts_arr - 1, 0)
        final_bad = np.asarray(bad_list, dtype=bool)

    # Rewind the oversized pool draw, then advance by exactly what
    # the reference channel consumed.
    rng.bit_generator.state = state
    if cursor:
        # Data-dependent on purpose: re-advances the rewound stream
        # by exactly the reference channel's consumption, so this
        # branch *restores* draw parity rather than breaking it.
        rng.random(cursor)  # freshlint: disable=FL013

    trace: list[tuple[float, int, str]] | None = None
    if record_trace:
        trace = _build_trace(
            sync_times, sync_elements, attempts_arr, success_arr,
            offsets_arr, pool, failure_outcome=failure_outcome,
            retry_policy=retry_policy, draw_stride=3)

    return FaultResolution(
        attempts=attempts_arr, success=success_arr,
        denied=attempts_arr == 0, offsets=offsets_arr,
        consumed=consumed_arr, denied_retries=denied_retries,
        trace=trace), final_bad


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_fastpath_faulted(catalog: Catalog, frequencies: np.ndarray,
                            times: np.ndarray, elements: np.ndarray,
                            kinds: np.ndarray, *, horizon: float,
                            period_length: float, n_periods: float,
                            failure_probability: float,
                            failure_outcome: PollOutcome,
                            rng: np.random.Generator,
                            retry_policy: RetryPolicy | None = None,
                            bandwidth_budget: float | None = None,
                            fault_time_offset: float = 0.0,
                            record_fault_trace: bool = False
                            ) -> SimulationResult:
    """Replay a tape under stateless i.i.d. per-attempt loss.

    Resolves every scheduled sync's fate with
    :func:`resolve_iid_faults`, then replays the surviving tape —
    all updates and accesses plus the *successful* syncs — through
    the fault-free segment kernel.  Bit-identical to the reference
    loop with a :class:`~repro.faults.channel.SyncChannel`, including
    attempt/failure accounting, the fault trace and the telemetry
    period series.

    Args:
        catalog: The simulated workload.
        frequencies: Per-element sync frequencies, in syncs/period.
        times: Merged event times, globally time-ordered.
        elements: Element id per merged event.
        kinds: :class:`~repro.sim.events.EventKind` per merged event.
        horizon: Total simulated clock time.
        period_length: Clock length of one sync period.
        n_periods: Periods simulated (may be fractional).
        failure_probability: Per-attempt loss probability in [0, 1].
        failure_outcome: Outcome reported on a failed attempt.
        rng: The fault generator (shared or dedicated).
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units,
            or None to disable the ledger.
        fault_time_offset: Added to event times on the fault clock,
            in clock units (whole periods).
        record_fault_trace: Whether to carry the per-attempt trace.

    Returns:
        A :class:`SimulationResult` bit-identical to the reference
        loop's for the same tape and fault stream.
    """
    sizes = np.asarray(catalog.sizes, dtype=float)
    sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
    sync_elements = elements[sync_positions]
    sync_local_times = times[sync_positions]

    resolution = resolve_iid_faults(
        sync_local_times + fault_time_offset, sync_elements, sizes,
        failure_probability=failure_probability,
        failure_outcome=failure_outcome, retry_policy=retry_policy,
        bandwidth_budget=bandwidth_budget,
        period_length=period_length, rng=rng,
        record_trace=record_fault_trace)

    return _assemble_faulted_result(
        catalog, frequencies, times, elements, kinds,
        horizon=horizon, period_length=period_length,
        n_periods=n_periods, sync_positions=sync_positions,
        sync_elements=sync_elements,
        sync_local_times=sync_local_times, resolution=resolution,
        failure_outcome=failure_outcome,
        fault_time_offset=fault_time_offset,
        record_fault_trace=record_fault_trace,
        engine="fastpath_faulted")


# seedflow: pair=repro.sim.simulation.Simulation.run
def replay_fastpath_ge(catalog: Catalog, frequencies: np.ndarray,
                       times: np.ndarray, elements: np.ndarray,
                       kinds: np.ndarray, *, horizon: float,
                       period_length: float, n_periods: float,
                       model: GilbertElliottFaultModel,
                       rng: np.random.Generator,
                       retry_policy: RetryPolicy | None = None,
                       bandwidth_budget: float | None = None,
                       fault_time_offset: float = 0.0,
                       record_fault_trace: bool = False
                       ) -> SimulationResult:
    """Replay a tape under a single Gilbert–Elliott burst-loss plan.

    Reads the model's per-element chain state, resolves every
    scheduled sync with :func:`resolve_ge_faults`, commits the final
    chain state back into the model (so consecutive runs sharing one
    plan object thread the hidden state exactly like the reference
    channel), then replays the surviving tape through the fault-free
    segment kernel.  Bit-identical to the reference loop, including
    attempt/failure accounting, the fault trace, the telemetry
    period series and the post-run fault-rng stream position.

    Args:
        catalog: The simulated workload.
        frequencies: Per-element sync frequencies, in syncs/period.
        times: Merged event times, globally time-ordered.
        elements: Element id per merged event.
        kinds: :class:`~repro.sim.events.EventKind` per merged event.
        horizon: Total simulated clock time.
        period_length: Clock length of one sync period.
        n_periods: Periods simulated (may be fractional).
        model: The plan's single Gilbert–Elliott model (from
            :meth:`~repro.faults.model.FaultPlan.ge_profile`); its
            chain state is read before and committed after the run.
        rng: The fault generator (shared or dedicated).
        retry_policy: Backoff policy, or None to disable retries.
        bandwidth_budget: Per-period attempt budget B in size units,
            or None to disable the ledger.
        fault_time_offset: Added to event times on the fault clock,
            in clock units (whole periods).
        record_fault_trace: Whether to carry the per-attempt trace.

    Returns:
        A :class:`SimulationResult` bit-identical to the reference
        loop's for the same tape and fault stream.
    """
    sizes = np.asarray(catalog.sizes, dtype=float)
    sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
    sync_elements = elements[sync_positions]
    sync_local_times = times[sync_positions]

    resolution, final_bad = resolve_ge_faults(
        sync_local_times + fault_time_offset, sync_elements, sizes,
        p_good_to_bad=model.p_good_to_bad,
        p_bad_to_good=model.p_bad_to_good,
        loss_good=model.loss_good, loss_bad=model.loss_bad,
        failure_outcome=model.failure_outcome,
        initial_bad=model.chain_states(catalog.n_elements),
        retry_policy=retry_policy,
        bandwidth_budget=bandwidth_budget,
        period_length=period_length, rng=rng,
        record_trace=record_fault_trace)
    model.set_chain_states(final_bad)

    return _assemble_faulted_result(
        catalog, frequencies, times, elements, kinds,
        horizon=horizon, period_length=period_length,
        n_periods=n_periods, sync_positions=sync_positions,
        sync_elements=sync_elements,
        sync_local_times=sync_local_times, resolution=resolution,
        failure_outcome=model.failure_outcome,
        fault_time_offset=fault_time_offset,
        record_fault_trace=record_fault_trace,
        engine="fastpath_ge")


def _assemble_faulted_result(catalog: Catalog,
                             frequencies: np.ndarray,
                             times: np.ndarray, elements: np.ndarray,
                             kinds: np.ndarray, *, horizon: float,
                             period_length: float, n_periods: float,
                             sync_positions: np.ndarray,
                             sync_elements: np.ndarray,
                             sync_local_times: np.ndarray,
                             resolution: FaultResolution,
                             failure_outcome: PollOutcome,
                             fault_time_offset: float,
                             record_fault_trace: bool,
                             engine: str) -> SimulationResult:
    """Replay the surviving tape and assemble the faulted result.

    The post-resolution half shared by :func:`replay_fastpath_faulted`
    and :func:`replay_fastpath_ge`: drop failed syncs, run the
    fault-free segment kernel, fold the channel-equivalent accounting
    and emit the telemetry series.  ``engine`` names the dispatching
    kernel for the ``sim.engine.*`` counters.
    """
    n_elements = catalog.n_elements
    sizes = np.asarray(catalog.sizes, dtype=float)
    keep = np.ones(times.shape[0], dtype=bool)
    keep[sync_positions[~resolution.success]] = False
    # One index gather instead of repeated boolean-mask scans: the
    # kept view feeds the replay, the period series and the ledger.
    kept = np.flatnonzero(keep)
    times_kept = times[kept]
    elements_kept = elements[kept]
    kinds_kept = kinds[kept]
    telemetry_on = obs.telemetry_enabled()
    replay = _replay_tape(n_elements, sizes, times_kept,
                          elements_kept, kinds_kept,
                          horizon=horizon, tape_flags=telemetry_on)

    accounting = _FaultAccounting.from_resolution(
        resolution, sync_elements, sizes, n_elements)
    p = catalog.access_probabilities
    perceived_by_accesses = (
        replay.fresh_accesses / replay.n_accesses
        if replay.n_accesses
        else float(p @ replay.element_freshness))

    if telemetry_on:
        _emit_fault_counters(accounting, failure_outcome)
        n_buckets = max(int(np.ceil(n_periods)) - 1, 0) + 1
        sync_buckets = (sync_local_times
                        / period_length).astype(np.int64)
        failed_per_period = np.bincount(
            sync_buckets,
            weights=(resolution.attempts - resolution.success),
            minlength=n_buckets).astype(np.int64)
        retries_per_period = np.bincount(
            sync_buckets,
            weights=(resolution.attempts
                     - (resolution.attempts > 0)),
            minlength=n_buckets).astype(np.int64)
        _emit_period_series(
            times_kept, elements_kept, kinds_kept, sizes,
            replay.fresh_before_global, replay.run_start_global,
            replay.becomes_fresh_global,
            n_elements, period_length=period_length,
            n_periods=n_periods, planned=float(sizes @ frequencies),
            failed_per_period=failed_per_period,
            retries_per_period=retries_per_period)
        _emit_monitor_close(replay.element_freshness,
                            replay.element_age, replay.n_accesses,
                            replay.fresh_accesses, horizon)
        _emit_ledger(times_kept, elements_kept, kinds_kept,
                     replay.run_start_global,
                     time_offset=fault_time_offset)
        obs.counter_add("sim.runs")
        obs.counter_add(f"sim.{engine}_runs")
        obs.counter_add(f"sim.engine.{engine}")
        obs.counter_add("sim.syncs", replay.n_syncs)
        obs.counter_add("sim.useful_syncs", replay.useful_syncs)
        obs.counter_add("sim.updates", replay.n_updates)
        obs.counter_add("sim.accesses", replay.n_accesses)
        obs.gauge_set("sim.bandwidth_used", replay.bandwidth_used)
        obs.gauge_set("sim.monitored_perceived_freshness",
                      float(perceived_by_accesses))
        obs.gauge_set("sim.monitored_general_freshness",
                      float(replay.element_freshness.mean()))
        obs.gauge_set("sim.attempted_bandwidth",
                      accounting.attempted_bandwidth)
        obs.gauge_set(
            "sim.poll_failure_fraction",
            (accounting.failed_polls / accounting.attempted_polls
             if accounting.attempted_polls else 0.0))

    return SimulationResult(
        catalog=catalog,
        frequencies=frequencies,
        horizon=horizon,
        period_length=period_length,
        n_updates=replay.n_updates,
        n_syncs=replay.n_syncs,
        n_accesses=replay.n_accesses,
        useful_syncs=replay.useful_syncs,
        bandwidth_used=replay.bandwidth_used,
        monitored_perceived_freshness=float(perceived_by_accesses),
        monitored_time_perceived=float(p @ replay.element_freshness),
        monitored_general_freshness=float(
            replay.element_freshness.mean()),
        element_time_freshness=replay.element_freshness,
        element_time_age=replay.element_age,
        monitored_perceived_age=float(p @ replay.element_age),
        access_counts=replay.access_counts,
        poll_counts=replay.poll_counts,
        changed_poll_counts=replay.changed_poll_counts,
        attempted_polls=accounting.attempted_polls,
        failed_polls=accounting.failed_polls,
        unreachable_polls=0,
        retries=accounting.retries,
        breaker_skips=0,
        denied_polls=accounting.denied_polls,
        attempted_bandwidth=accounting.attempted_bandwidth,
        attempted_poll_counts=accounting.attempted_poll_counts,
        failed_poll_counts=accounting.failed_poll_counts,
        unreachable_poll_counts=np.zeros(n_elements, dtype=np.int64),
        unreachable_elements=None,
        fault_trace=(tuple(resolution.trace)
                     if record_fault_trace
                     and resolution.trace is not None else None),
    )


@dataclass
class _FaultAccounting:
    """Channel-equivalent attempt/failure accounting for one tape."""

    attempted_polls: int
    failed_polls: int
    retries: int
    denied_polls: int
    denied_retries: int
    failed_syncs: int
    attempted_bandwidth: float
    attempted_poll_counts: np.ndarray
    failed_poll_counts: np.ndarray

    @classmethod
    def from_resolution(cls, resolution: FaultResolution,
                        sync_elements: np.ndarray, sizes: np.ndarray,
                        n_elements: int) -> "_FaultAccounting":
        attempts = resolution.attempts
        attempted_polls = int(attempts.sum())
        n_success = int(np.count_nonzero(resolution.success))
        made = int(np.count_nonzero(attempts))
        denied_polls = int(np.count_nonzero(resolution.denied))
        # Every attempt burns its element's size; reproduce the
        # channel's sequential += with a flat per-attempt fold.
        attempt_sizes = np.repeat(sizes[sync_elements], attempts)
        attempted_bandwidth = float(np.bincount(
            np.zeros(attempt_sizes.shape[0], dtype=np.intp),
            weights=attempt_sizes, minlength=1)[0])
        attempted_poll_counts = np.bincount(
            sync_elements, weights=attempts,
            minlength=n_elements).astype(np.int64)
        failed_poll_counts = np.bincount(
            sync_elements, weights=attempts - resolution.success,
            minlength=n_elements).astype(np.int64)
        return cls(
            attempted_polls=attempted_polls,
            failed_polls=attempted_polls - n_success,
            retries=attempted_polls - made,
            denied_polls=denied_polls,
            denied_retries=resolution.denied_retries,
            failed_syncs=made - n_success,
            attempted_bandwidth=attempted_bandwidth,
            attempted_poll_counts=attempted_poll_counts,
            failed_poll_counts=failed_poll_counts,
        )


def _emit_fault_counters(accounting: _FaultAccounting,
                         failure_outcome: PollOutcome) -> None:
    """Emit the ``faults.*`` counter totals the channel would have.

    The reference channel bumps each counter once per attempt; the
    aggregated adds land on the same totals.  Zero totals are skipped
    so counters that never fired stay absent, as in the reference.
    """
    if accounting.failed_polls:
        obs.counter_add(f"faults.{failure_outcome.value}",
                        accounting.failed_polls)
    if accounting.retries:
        obs.counter_add("faults.retries", accounting.retries)
    if accounting.denied_polls:
        obs.counter_add("faults.denied_polls",
                        accounting.denied_polls)
    if accounting.denied_retries:
        obs.counter_add("faults.denied_retries",
                        accounting.denied_retries)
    if accounting.failed_syncs:
        obs.counter_add("faults.failed_syncs",
                        accounting.failed_syncs)


def _emit_monitor_close(element_freshness: np.ndarray,
                        element_age: np.ndarray, n_accesses: int,
                        fresh_accesses: int, horizon: float) -> None:
    """Emit the monitor's close-time gauges and event."""
    obs.gauge_set("monitor.mean_time_freshness",
                  float(element_freshness.mean()))
    obs.gauge_set("monitor.mean_time_age",
                  float(element_age.mean()))
    obs.event("monitor.close", horizon=horizon,
              accesses=n_accesses,
              fresh_accesses=fresh_accesses,
              fresh_fraction=(fresh_accesses / n_accesses
                              if n_accesses else 1.0))


def _fold_ledger_bulk(fold, elements: np.ndarray,
                      times: np.ndarray) -> None:
    """Fold one kind of ledger event per element through the cap.

    Replicates :func:`repro.obs.registry.element_label` in bulk —
    indices at or past the cap share the ``"overflow"`` bucket — then
    reduces each bucket to (latest time, event count) before making
    at most ``cap + 1`` scalar ``fold`` calls.  Because ledger folds
    are order-independent (max timestamps, summed counts), this lands
    on the exact ledger the reference loop's per-event scalar calls
    build.
    """
    if elements.shape[0] == 0:
        return
    elements = elements.astype(np.int64, copy=False)
    cap = obs.max_element_labels()
    buckets = np.minimum(elements, cap) if cap > 0 else elements
    n_buckets = int(buckets.max()) + 1
    counts = np.bincount(buckets, minlength=n_buckets)
    latest = np.full(n_buckets, -np.inf)
    np.maximum.at(latest, buckets, times)
    for index in np.flatnonzero(counts):
        label: int | str = ("overflow" if cap > 0 and index >= cap
                            else int(index))
        fold(label, float(latest[index]), int(counts[index]))


def _emit_ledger(times: np.ndarray, elements: np.ndarray,
                 kinds: np.ndarray,
                 run_start_global: np.ndarray | None, *,
                 time_offset: float = 0.0) -> None:
    """Feed the freshness ledger from a (kept) replay tape.

    Mirrors the reference loop's per-event hooks: every sync still on
    the tape is a *successful* refresh (the faulted paths drop failed
    syncs before replay), and every run-opening update
    (``run_start``) opens a stale run.  Times shift by
    ``time_offset`` onto the global fault clock, matching the
    ``time + fault_time_offset`` stamps the reference loop records.
    """
    if times.shape[0] == 0 or run_start_global is None:
        return
    ledger = obs.get_registry().ledger
    sync_mask = kinds == int(EventKind.SYNC)
    _fold_ledger_bulk(ledger.record_refresh, elements[sync_mask],
                      times[sync_mask] + time_offset)
    _fold_ledger_bulk(ledger.record_stale,
                      elements[run_start_global],
                      times[run_start_global] + time_offset)


def _emit_period_series(times: np.ndarray, elements: np.ndarray,
                        kinds: np.ndarray, sizes: np.ndarray,
                        fresh_before_global: np.ndarray | None,
                        run_start_global: np.ndarray | None,
                        becomes_fresh_global: np.ndarray | None,
                        n_elements: int, *,
                        period_length: float, n_periods: float,
                        planned: float,
                        failed_per_period: np.ndarray | None = None,
                        retries_per_period: np.ndarray | None = None,
                        first_period: int = 0,
                        initial_fresh: int | None = None,
                        ) -> None:
    """Emit the per-period ``"sim.period"`` telemetry series.

    Reproduces the reference loop's :class:`_PeriodTracker` output:
    one event per completed (or final partial) period with the same
    integer counts, the same sequentially folded bandwidth, and the
    mirror's instantaneous mean freshness at each period boundary.
    ``failed_per_period`` / ``retries_per_period`` carry the faulted
    path's per-period attempt accounting (zeros when absent).

    The streaming engine emits one slab at a time: ``first_period``
    offsets the emitted period labels (the slab's events carry global
    times), ``n_periods`` then counts the *slab's* periods, and
    ``initial_fresh`` is the instantaneous fresh-copy count entering
    the slab (defaults to ``n_elements`` — everything fresh at t=0 —
    which also covers the one-shot callers).
    """
    last_period = max(int(np.ceil(n_periods)) - 1, 0)
    n_buckets = last_period + 1
    n_events = int(times.shape[0])
    if initial_fresh is None:
        initial_fresh = n_elements

    if n_events:
        assert (fresh_before_global is not None
                and run_start_global is not None
                and becomes_fresh_global is not None)
        period_index = ((times / period_length).astype(np.int64)
                        - first_period)
        update_kind = int(EventKind.UPDATE)
        sync_kind = int(EventKind.SYNC)
        global_update = kinds == update_kind
        global_sync = kinds == sync_kind
        global_access = ~global_update & ~global_sync

        def per_period(mask: np.ndarray) -> np.ndarray:
            return np.bincount(period_index[mask], minlength=n_buckets)

        syncs_per_period = per_period(global_sync)
        updates_per_period = per_period(global_update)
        accesses_per_period = per_period(global_access)
        fresh_accesses_per_period = per_period(
            global_access & fresh_before_global)
        bandwidth_per_period = np.bincount(
            period_index[global_sync],
            weights=sizes[elements[global_sync]], minlength=n_buckets)

        # Instantaneous fresh-copy count after each event: −1 when a
        # run-opening update stales a copy, +1 when a sync refreshes
        # a stale one.
        delta = np.zeros(n_events, dtype=np.int64)
        delta[run_start_global] = -1
        delta[becomes_fresh_global] = 1
        fresh_count = initial_fresh + np.cumsum(delta)
        boundary = np.searchsorted(period_index,
                                   np.arange(n_buckets), side="right") - 1
        mean_freshness = np.where(
            boundary >= 0,
            fresh_count[np.maximum(boundary, 0)], initial_fresh
        ) / n_elements
    else:
        zeros = np.zeros(n_buckets, dtype=np.int64)
        syncs_per_period = updates_per_period = zeros
        accesses_per_period = fresh_accesses_per_period = zeros
        bandwidth_per_period = np.zeros(n_buckets)
        mean_freshness = np.full(n_buckets, initial_fresh / n_elements)

    if failed_per_period is None:
        failed_per_period = np.zeros(n_buckets, dtype=np.int64)
    if retries_per_period is None:
        retries_per_period = np.zeros(n_buckets, dtype=np.int64)

    for period in range(n_buckets):
        accesses = int(accesses_per_period[period])
        fresh = int(fresh_accesses_per_period[period])
        bandwidth = float(bandwidth_per_period[period])
        utilization = bandwidth / planned if planned else 0.0
        obs.event(
            "sim.period",
            period=obs.element_label(first_period + period),
            syncs=int(syncs_per_period[period]),
            bandwidth=bandwidth,
            budget_utilization=utilization,
            updates=int(updates_per_period[period]),
            accesses=accesses,
            fresh_fraction=(fresh / accesses if accesses else 1.0),
            mean_freshness=float(mean_freshness[period]),
            failed_polls=int(failed_per_period[period]),
            retries=int(retries_per_period[period]),
        )
        obs.counter_add("sim.periods")
        obs.gauge_set("sim.budget_utilization", utilization)


class ReplayArena:
    """Reusable scratch buffers for window-batched replays.

    The batched adaptive manager calls :func:`replay_window_tapes`
    once per replan window; each call concatenates the window's
    per-period tapes into contiguous working arrays.  An arena keeps
    one geometrically grown buffer per named slot and hands out
    prefix views, so after warm-up a steady-state window performs
    zero concatenation allocations — the "one arena allocation per
    replay" memory discipline that keeps 10⁶-element adapt runs
    from churning the allocator.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype: Any) -> np.ndarray:
        """Return a ``size``-long view of the named scratch buffer.

        Grows the backing buffer geometrically (2×) when ``size``
        outruns it, and reallocates when the requested dtype changes;
        contents are uninitialized — callers must overwrite the view.
        """
        wanted = np.dtype(dtype)
        buffer = self._buffers.get(name)
        if (buffer is None or buffer.dtype != wanted
                or buffer.shape[0] < size):
            capacity = max(size, 1)
            if buffer is not None and buffer.dtype == wanted:
                capacity = max(capacity, 2 * buffer.shape[0])
            buffer = np.empty(capacity, dtype=wanted)
            self._buffers[name] = buffer
        return buffer[:size]

    def nbytes(self) -> int:
        """Total bytes currently held across all slots."""
        return sum(buffer.nbytes
                   for buffer in self._buffers.values())


def resolve_tape_faults(tape: tuple[np.ndarray, np.ndarray,
                                    np.ndarray],
                        sizes: np.ndarray, *, fault_args: dict,
                        period_length: float,
                        fault_clock_offset: float,
                        initial_bad: np.ndarray | None = None
                        ) -> tuple[FaultResolution,
                                   np.ndarray | None]:
    """Resolve one period tape's faults ahead of a batched replay.

    The batched manager interleaves fault resolution with tape
    construction — resolve period ``j`` right after building its
    tape — so shared-fault-rng plans consume workload and fault
    draws in exactly the per-period reference order.  Dispatches on
    ``fault_args["kind"]`` (``"iid"`` or ``"ge"``).

    Gilbert–Elliott plans are resolved against an explicit
    ``initial_bad`` chain state and the model object is *not*
    mutated: the caller threads the returned state into the next
    period's call and commits it to the model only once the window
    is final (mid-window rollbacks then just drop the tail states).

    Args:
        tape: One ``(times, elements, kinds)`` merged period tape
            with local times in ``[0, period_length)``.
        sizes: Per-element sizes, in bandwidth units.
        fault_args: Dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`.
        period_length: Clock length of one sync period.
        fault_clock_offset: Added to event times on the fault clock,
            in clock units (whole periods).
        initial_bad: Gilbert–Elliott chain state entering the
            period, or None to read it from the plan model
            (ignored for i.i.d. plans).

    Returns:
        ``(resolution, final_bad)`` where ``final_bad`` is the chain
        state after the period for Gilbert–Elliott plans and None
        for i.i.d. plans.
    """
    times, elements, kinds = tape
    sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
    sync_elements = elements[sync_positions]
    sync_times = times[sync_positions] + fault_clock_offset
    if fault_args.get("kind", "iid") == "ge":
        model = fault_args["model"]
        if initial_bad is None:
            initial_bad = model.chain_states(sizes.shape[0])
        return resolve_ge_faults(
            sync_times, sync_elements, sizes,
            p_good_to_bad=model.p_good_to_bad,
            p_bad_to_good=model.p_bad_to_good,
            loss_good=model.loss_good, loss_bad=model.loss_bad,
            failure_outcome=model.failure_outcome,
            initial_bad=initial_bad,
            retry_policy=fault_args["retry_policy"],
            bandwidth_budget=fault_args["bandwidth_budget"],
            period_length=period_length, rng=fault_args["rng"],
            record_trace=False)
    resolution = resolve_iid_faults(
        sync_times, sync_elements, sizes,
        failure_probability=fault_args["failure_probability"],
        failure_outcome=fault_args["failure_outcome"],
        retry_policy=fault_args["retry_policy"],
        bandwidth_budget=fault_args["bandwidth_budget"],
        period_length=period_length, rng=fault_args["rng"],
        record_trace=False)
    return resolution, None


def replay_window_tapes(catalog: Catalog, frequencies: np.ndarray,
                        tapes: list[tuple[np.ndarray, np.ndarray,
                                          np.ndarray]], *,
                        period_length: float,
                        first_global_period: int,
                        fault_args: dict | None = None,
                        resolutions: (list[FaultResolution]
                                      | None) = None,
                        arena: ReplayArena | None = None
                        ) -> tuple[list[SimulationResult], list[int]]:
    """Replay several consecutive one-period tapes in one kernel call.

    The window-batched adaptive manager generates one event tape per
    period (preserving the per-period draw order, so common-random-
    number seeds line up with per-period runs), then hands the whole
    replan window here.  Each period's elements are *tiled* — period
    ``j`` maps element ``e`` to segment id ``e + j·n`` — so one
    segmented replay over ``W·n`` virtual elements reproduces ``W``
    independent single-period replays, bit for bit: every per-element
    fold sees exactly the events, in exactly the order, the
    per-period kernel would have seen.

    Args:
        catalog: The simulated workload (all periods share it).
        frequencies: Per-element sync frequencies, in syncs/period
            (constant within a replan window by construction).
        tapes: One ``(times, elements, kinds)`` merged tape per
            period, with *local* times in ``[0, period_length)``.
        period_length: Clock length of one sync period.
        first_global_period: 1-based global index of the window's
            first period; period ``j`` of the window runs on the
            fault clock at offset
            ``(first_global_period + j − 1) · period_length``.
        fault_args: The dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`
            (``kind`` ``"iid"`` or ``"ge"`` plus failure model,
            retry policy, budget, rng), or None for a fault-free
            window.  Unless ``resolutions`` is supplied, the fault
            rng must be *dedicated* (not shared with the workload
            rng): per-period runs interleave workload and fault draws
            on a shared stream, while a batched window draws all
            tapes before any faults — only a separate fault generator
            keeps both orders bit-identical.
        resolutions: Pre-computed per-period fault resolutions from
            :func:`resolve_tape_faults`, one per tape, produced by
            interleaving resolution with tape construction.  With
            these the shared-stream restriction above disappears —
            the draws already happened in per-period order — and
            this function consumes no RNG.  Requires ``fault_args``
            for the accounting metadata (outcome, budget).
        arena: Scratch-buffer :class:`ReplayArena` reused across
            windows, or None to allocate per call.

    Returns:
        ``(results, consumed)`` — one :class:`SimulationResult` per
        period, bit-identical to running each period separately, and
        the number of fault-rng draws consumed per period (all zeros
        when fault-free), which the manager uses to rewind the fault
        stream when a mid-window replan trigger forces a rollback.
    """
    n_elements = catalog.n_elements
    n_windows = len(tapes)
    sizes = np.asarray(catalog.sizes, dtype=float)
    planned = float(sizes @ frequencies)
    sync_kind = int(EventKind.SYNC)
    update_kind = int(EventKind.UPDATE)

    counts = np.array([tape[0].shape[0] for tape in tapes],
                      dtype=np.int64)
    bounds = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.cumsum(counts)])
    n_events = int(bounds[-1])

    def gather(name: str, parts: list[np.ndarray],
               dtype: Any) -> np.ndarray:
        """Concatenate per-period arrays into one arena-backed run."""
        cast = [np.asarray(part, dtype=dtype) for part in parts]
        if arena is None:
            return np.concatenate(cast)
        out = arena.take(name, n_events, dtype)
        np.concatenate(cast, out=out)
        return out

    times = gather("times", [tape[0] for tape in tapes], np.float64)
    elements_local = gather("elements", [tape[1] for tape in tapes],
                            np.int64)
    kinds = gather("kinds", [tape[2] for tape in tapes], np.int64)
    if arena is None:
        tile_of_event = np.repeat(
            np.arange(n_windows, dtype=np.int64), counts)
        elements_tiled = (elements_local
                          + tile_of_event * n_elements)
        tiled_sizes = np.tile(sizes, n_windows)
        keep = np.ones(n_events, dtype=bool)
    else:
        tile_of_event = arena.take("tiles", n_events, np.int64)
        for j in range(n_windows):
            tile_of_event[int(bounds[j]):int(bounds[j + 1])] = j
        elements_tiled = arena.take("elements_tiled", n_events,
                                    np.int64)
        np.multiply(tile_of_event, n_elements, out=elements_tiled)
        elements_tiled += elements_local
        tiled_sizes = arena.take("tiled_sizes",
                                 n_windows * n_elements, np.float64)
        tiled_sizes.reshape(n_windows, n_elements)[:] = sizes
        keep = arena.take("keep", n_events, bool)
        keep[:] = True

    sync_positions = np.flatnonzero(kinds == sync_kind)
    sync_elements = elements_local[sync_positions]
    sync_tiles = tile_of_event[sync_positions]
    sync_bounds = np.searchsorted(sync_tiles,
                                  np.arange(n_windows + 1))

    fault_kind = (fault_args.get("kind", "iid")
                  if fault_args is not None else None)
    resolution: FaultResolution | None = None
    consumed = [0] * n_windows
    if resolutions is not None:
        if fault_args is None:
            raise SimulationError(
                "replay_window_tapes: resolutions requires "
                "fault_args for the accounting metadata")
        if len(resolutions) != n_windows:
            raise SimulationError(
                "replay_window_tapes: expected one resolution per "
                f"tape, got {len(resolutions)} for {n_windows}")
        resolution = FaultResolution(
            attempts=np.concatenate(
                [r.attempts for r in resolutions]),
            success=np.concatenate(
                [r.success for r in resolutions]),
            denied=np.concatenate([r.denied for r in resolutions]),
            offsets=np.concatenate(
                [r.offsets for r in resolutions]),
            consumed=np.concatenate(
                [r.consumed for r in resolutions]),
            denied_retries=sum(r.denied_retries
                               for r in resolutions),
            trace=None)
        if resolution.success.shape[0] != sync_positions.shape[0]:
            raise SimulationError(
                "replay_window_tapes: resolutions cover "
                f"{resolution.success.shape[0]} syncs but the "
                f"window schedules {sync_positions.shape[0]}")
        consumed = [int(r.consumed.sum()) for r in resolutions]
    elif fault_args is not None:
        fault_offsets = ((first_global_period - 1 + sync_tiles)
                         * period_length)
        if fault_kind == "ge":
            model = fault_args["model"]
            resolution, final_bad = resolve_ge_faults(
                times[sync_positions] + fault_offsets,
                sync_elements, sizes,
                p_good_to_bad=model.p_good_to_bad,
                p_bad_to_good=model.p_bad_to_good,
                loss_good=model.loss_good,
                loss_bad=model.loss_bad,
                failure_outcome=model.failure_outcome,
                initial_bad=model.chain_states(n_elements),
                retry_policy=fault_args["retry_policy"],
                bandwidth_budget=fault_args["bandwidth_budget"],
                period_length=period_length,
                rng=fault_args["rng"], record_trace=False)
            model.set_chain_states(final_bad)
        else:
            resolution = resolve_iid_faults(
                times[sync_positions] + fault_offsets,
                sync_elements, sizes,
                failure_probability=fault_args[
                    "failure_probability"],
                failure_outcome=fault_args["failure_outcome"],
                retry_policy=fault_args["retry_policy"],
                bandwidth_budget=fault_args["bandwidth_budget"],
                period_length=period_length, rng=fault_args["rng"],
                record_trace=False)
    if resolution is not None:
        keep[sync_positions[~resolution.success]] = False
        if resolutions is None:
            consumed = np.bincount(
                sync_tiles, weights=resolution.consumed,
                minlength=n_windows).astype(np.int64).tolist()
    engine_label = ("fastpath" if resolution is None
                    else "fastpath_ge" if fault_kind == "ge"
                    else "fastpath_faulted")

    # One index gather instead of four boolean-mask scans.
    kept = np.flatnonzero(keep)
    times_f = times[kept]
    elements_f = elements_local[kept]
    kinds_f = kinds[kept]
    replay = _replay_tape(n_windows * n_elements, tiled_sizes,
                          times_f, elements_tiled[kept], kinds_f,
                          horizon=period_length, tape_flags=True)
    filtered_bounds = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(keep)])[bounds]

    empty_flags = np.zeros(0, dtype=bool)
    fresh_flags = (replay.fresh_before_global
                   if replay.fresh_before_global is not None
                   else empty_flags)
    run_start_flags = (replay.run_start_global
                       if replay.run_start_global is not None
                       else empty_flags)
    becomes_fresh_flags = (replay.becomes_fresh_global
                           if replay.becomes_fresh_global is not None
                           else empty_flags)
    changed_flags = (replay.changed_sync_global
                     if replay.changed_sync_global is not None
                     else empty_flags)

    telemetry_on = obs.telemetry_enabled()
    access_probabilities = catalog.access_probabilities
    do_contracts = contracts_enabled()
    granularity = float(sizes[frequencies > 0.0].sum())

    results: list[SimulationResult] = []
    for j in range(n_windows):
        event_slice = slice(int(filtered_bounds[j]),
                            int(filtered_bounds[j + 1]))
        element_slice = slice(j * n_elements, (j + 1) * n_elements)
        kinds_j = kinds_f[event_slice]
        elements_j = elements_f[event_slice]
        times_j = times_f[event_slice]
        is_update_j = kinds_j == update_kind
        is_sync_j = kinds_j == sync_kind
        is_access_j = ~is_update_j & ~is_sync_j
        n_updates_j = int(np.count_nonzero(is_update_j))
        n_syncs_j = int(np.count_nonzero(is_sync_j))
        n_accesses_j = int(np.count_nonzero(is_access_j))
        fresh_j = fresh_flags[event_slice]
        fresh_accesses_j = int(np.count_nonzero(
            is_access_j & fresh_j))
        useful_j = int(np.count_nonzero(changed_flags[event_slice]))
        sync_sizes_j = sizes[elements_j[is_sync_j]]
        bandwidth_j = float(np.bincount(
            np.zeros(sync_sizes_j.shape[0], dtype=np.intp),
            weights=sync_sizes_j, minlength=1)[0])

        freshness_j = replay.element_freshness[element_slice].copy()
        age_j = replay.element_age[element_slice].copy()
        perceived_by_accesses_j = (
            fresh_accesses_j / n_accesses_j if n_accesses_j
            else float(access_probabilities @ freshness_j))

        accounting: _FaultAccounting | None = None
        failed_per_period = None
        retries_per_period = None
        if resolution is not None:
            s0, s1 = int(sync_bounds[j]), int(sync_bounds[j + 1])
            attempts_j = resolution.attempts[s0:s1]
            window_resolution = FaultResolution(
                attempts=attempts_j,
                success=resolution.success[s0:s1],
                denied=resolution.denied[s0:s1],
                offsets=resolution.offsets[s0:s1],
                consumed=resolution.consumed[s0:s1],
                denied_retries=0, trace=None)
            accounting = _FaultAccounting.from_resolution(
                window_resolution, sync_elements[s0:s1], sizes,
                n_elements)
            if telemetry_on:
                failed_per_period = np.asarray([int(
                    (attempts_j - window_resolution.success).sum())],
                    dtype=np.int64)
                retries_per_period = np.asarray(
                    [int((attempts_j - (attempts_j > 0)).sum())],
                    dtype=np.int64)

        if telemetry_on:
            _emit_period_series(
                times_j, elements_j, kinds_j, sizes,
                fresh_j, run_start_flags[event_slice],
                becomes_fresh_flags[event_slice],
                n_elements, period_length=period_length,
                n_periods=1.0, planned=planned,
                failed_per_period=failed_per_period,
                retries_per_period=retries_per_period)
            _emit_monitor_close(freshness_j, age_j, n_accesses_j,
                                fresh_accesses_j, period_length)
            _emit_ledger(times_j, elements_j, kinds_j,
                         run_start_flags[event_slice],
                         time_offset=((first_global_period - 1 + j)
                                      * period_length))
            obs.counter_add("sim.runs")
            obs.counter_add(f"sim.{engine_label}_runs")
            obs.counter_add(f"sim.engine.{engine_label}")
            obs.counter_add("sim.syncs", n_syncs_j)
            obs.counter_add("sim.useful_syncs", useful_j)
            obs.counter_add("sim.updates", n_updates_j)
            obs.counter_add("sim.accesses", n_accesses_j)
            obs.gauge_set("sim.bandwidth_used", bandwidth_j)
            obs.gauge_set("sim.monitored_perceived_freshness",
                          float(perceived_by_accesses_j))
            obs.gauge_set("sim.monitored_general_freshness",
                          float(freshness_j.mean()))
            if accounting is not None:
                obs.gauge_set("sim.attempted_bandwidth",
                              accounting.attempted_bandwidth)
                obs.gauge_set(
                    "sim.poll_failure_fraction",
                    (accounting.failed_polls
                     / accounting.attempted_polls
                     if accounting.attempted_polls else 0.0))

        if do_contracts:
            check_sync_conservation(
                bandwidth_j, planned, 1.0, granularity,
                where="replay_window_tapes")
            if accounting is not None and \
                    fault_args is not None and \
                    fault_args["bandwidth_budget"] is not None:
                check_attempt_budget(
                    accounting.attempted_bandwidth,
                    fault_args["bandwidth_budget"], 1.0, granularity,
                    where="replay_window_tapes")

        results.append(SimulationResult(
            catalog=catalog,
            frequencies=frequencies,
            horizon=period_length,
            period_length=period_length,
            n_updates=n_updates_j,
            n_syncs=n_syncs_j,
            n_accesses=n_accesses_j,
            useful_syncs=useful_j,
            bandwidth_used=bandwidth_j,
            monitored_perceived_freshness=float(
                perceived_by_accesses_j),
            monitored_time_perceived=float(
                access_probabilities @ freshness_j),
            monitored_general_freshness=float(freshness_j.mean()),
            element_time_freshness=freshness_j,
            element_time_age=age_j,
            monitored_perceived_age=float(
                access_probabilities @ age_j),
            access_counts=replay.access_counts[element_slice].copy(),
            poll_counts=replay.poll_counts[element_slice].copy(),
            changed_poll_counts=replay.changed_poll_counts[
                element_slice].copy(),
            attempted_polls=(accounting.attempted_polls
                             if accounting is not None else n_syncs_j),
            failed_polls=(accounting.failed_polls
                          if accounting is not None else 0),
            unreachable_polls=0,
            retries=(accounting.retries
                     if accounting is not None else 0),
            breaker_skips=0,
            denied_polls=(accounting.denied_polls
                          if accounting is not None else 0),
            attempted_bandwidth=(accounting.attempted_bandwidth
                                 if accounting is not None
                                 else bandwidth_j),
            attempted_poll_counts=(accounting.attempted_poll_counts
                                   if accounting is not None
                                   else None),
            failed_poll_counts=(accounting.failed_poll_counts
                                if accounting is not None else None),
            unreachable_poll_counts=(
                np.zeros(n_elements, dtype=np.int64)
                if accounting is not None else None),
            unreachable_elements=None,
            fault_trace=None,
        ))

    if telemetry_on and resolution is not None:
        accounting_total = _FaultAccounting.from_resolution(
            resolution, sync_elements, sizes, n_elements)
        if fault_args is None:
            outcome = PollOutcome.ERROR
        elif fault_kind == "ge":
            outcome = fault_args["model"].failure_outcome
        else:
            outcome = fault_args["failure_outcome"]
        _emit_fault_counters(accounting_total, outcome)

    return results, consumed


@dataclass
class ReplayCarry:
    """Per-element copy state threaded across streaming slabs.

    Everything the one-shot kernel derives from "start of tape" lives
    here instead, so a slab kernel can pick up exactly where the
    previous slab stopped.  Integer fields are exact; the float
    accumulators (``fresh_time``, ``age_integral``,
    ``bandwidth_used``) are partial *left folds* in event order, which
    the next slab continues bit-exactly by prepending them to its own
    fold (see the module notes on ``np.bincount``).

    Attributes:
        fresh: Whether each copy is fresh after the last event seen.
        stale_since: Start time of each element's open stale run, in
            clock units (stale elements only; otherwise a stale but
            finite leftover that the kernel never reads).
        last_time: Time of each element's last event so far, in clock
            units (0 before any event).
        versions: Source updates seen per element so far.
        last_polled_version: Source version observed at each
            element's last successful poll (0 before any).
        fresh_time: Folded fresh clock time per element so far.
        age_integral: Folded age integral per element so far.
        poll_counts: Successful polls per element so far.
        changed_poll_counts: Polls that found a new version.
        access_counts: Accesses per element so far.
        n_updates: Update events so far, tape-wide.
        n_syncs: Successful sync events so far, tape-wide.
        n_accesses: Access events so far, tape-wide.
        useful_syncs: Syncs that found a new version, tape-wide.
        fresh_accesses: Accesses that saw fresh data, tape-wide.
        bandwidth_used: Folded sync bandwidth so far, in size units.
        fresh_count: Instantaneous fresh-copy count after the last
            event (the period telemetry series' running level).
    """

    fresh: np.ndarray
    stale_since: np.ndarray
    last_time: np.ndarray
    versions: np.ndarray
    last_polled_version: np.ndarray
    fresh_time: np.ndarray
    age_integral: np.ndarray
    poll_counts: np.ndarray
    changed_poll_counts: np.ndarray
    access_counts: np.ndarray
    n_updates: int
    n_syncs: int
    n_accesses: int
    useful_syncs: int
    fresh_accesses: int
    bandwidth_used: float
    fresh_count: int

    @classmethod
    def start(cls, n_elements: int) -> "ReplayCarry":
        """The start-of-tape state: every copy fresh and untouched."""
        return cls(
            fresh=np.ones(n_elements, dtype=bool),
            stale_since=np.zeros(n_elements),
            last_time=np.zeros(n_elements),
            versions=np.zeros(n_elements, dtype=np.int64),
            last_polled_version=np.zeros(n_elements, dtype=np.int64),
            fresh_time=np.zeros(n_elements),
            age_integral=np.zeros(n_elements),
            poll_counts=np.zeros(n_elements, dtype=np.int64),
            changed_poll_counts=np.zeros(n_elements, dtype=np.int64),
            access_counts=np.zeros(n_elements, dtype=np.int64),
            n_updates=0, n_syncs=0, n_accesses=0,
            useful_syncs=0, fresh_accesses=0,
            bandwidth_used=0.0, fresh_count=n_elements,
        )

    def nbytes(self) -> int:
        """Bytes held by the per-element carry arrays."""
        return sum(
            getattr(self, field).nbytes
            for field in ("fresh", "stale_since", "last_time",
                          "versions", "last_polled_version",
                          "fresh_time", "age_integral", "poll_counts",
                          "changed_poll_counts", "access_counts"))


def _fold_with_carry(carry_values: np.ndarray, elements: np.ndarray,
                     weights: np.ndarray, n_elements: int
                     ) -> np.ndarray:
    """Continue per-element left folds with one slab of weights.

    Prepends each element's carried accumulator as its bin's first
    weight, so the bincount's in-order per-bin fold computes
    ``((carry + w₁) + w₂) + …`` — exactly the value the one-shot fold
    over the concatenated tape would hold.
    """
    bins = np.concatenate([np.arange(n_elements, dtype=np.int64),
                           elements])
    return np.bincount(bins,
                       weights=np.concatenate([carry_values, weights]),
                       minlength=n_elements)


def _replay_tape_chunk(carry: ReplayCarry, sizes: np.ndarray,
                       times: np.ndarray, elements: np.ndarray,
                       kinds: np.ndarray, *, tape_flags: bool = False
                       ) -> tuple[np.ndarray | None, np.ndarray | None,
                                  np.ndarray | None, np.ndarray | None]:
    """Fold one slab of a (kept) tape into the carry state.

    The slab variant of :func:`_replay_tape`: identical segment
    machinery and float operations, with every "start of tape"
    assumption replaced by the carried per-element state — the fresh
    flag where no in-slab state change precedes an event, the carried
    ``stale_since`` where no in-slab run start precedes it, the
    carried last event time at segment starts, and the carried
    version counters under the poll bookkeeping.  Folding slabs
    ``[0,a) [a,b) …`` of a tape through one carry is bit-identical to
    :func:`_replay_tape` over the whole tape.

    Args:
        carry: The cross-slab state; mutated in place.
        sizes: Per-element transfer sizes, in size units.
        times: Slab event times (global clock), time-ordered.
        elements: Element id per slab event.
        kinds: :class:`~repro.sim.events.EventKind` per slab event.
        tape_flags: Whether to return the per-event flags in tape
            order (for the telemetry series and the ledger).

    Returns:
        ``(fresh_before, run_start, becomes_fresh, changed_sync)``
        flags in *tape* order, or all None for an empty slab or when
        ``tape_flags`` is False.
    """
    n_events = int(times.shape[0])
    if not n_events:
        return None, None, None, None
    if n_events >= np.iinfo(np.int32).max:
        raise SimulationError(
            f"slab of {n_events} events overflows int32 positions")
    n_elements = int(carry.fresh.shape[0])
    update_kind = int(EventKind.UPDATE)
    sync_kind = int(EventKind.SYNC)

    tape = _regroup(times, elements, kinds)
    element_of = tape.element_of
    time_of = tape.time_of
    kind_of = tape.kind_of
    segment_start_of = tape.segment_start_of
    ends = tape.ends
    present = tape.present
    positions = np.arange(n_events, dtype=np.int32)

    # Previous event time: within-slab shift, carried time at starts.
    previous_time = _shift_within_segment(time_of, tape.new_segment, 0.0)
    previous_time[tape.starts] = carry.last_time[present]
    if (time_of < previous_time).any():
        raise SimulationError(
            "slab events precede the carried replay clock")
    elapsed = time_of - previous_time

    is_update = kind_of == update_kind
    is_sync = kind_of == sync_kind
    is_access = ~is_update & ~is_sync

    # Fresh flag before each event: last in-slab state change decides;
    # otherwise the carried flag.
    last_state_change, previous_state_change = _state_changes(
        is_update | is_sync, positions, segment_start_of)
    fresh_before = np.where(
        previous_state_change >= 0,
        kind_of[np.maximum(previous_state_change, 0)] == sync_kind,
        carry.fresh[element_of])

    # Stale-run starts: in-slab run start pins stale_since, otherwise
    # the carried run start.  Only stale-before events read it, and
    # only they accrue age (see _replay_tape).
    run_start = is_update & fresh_before
    run_start_positions = np.where(run_start, positions, -1)
    since_position = _last_position_at_or_before(
        run_start_positions, segment_start_of)
    stale_positions = np.flatnonzero(~fresh_before)
    stale_run_start = since_position[stale_positions]
    stale_since = np.where(
        stale_run_start >= 0, time_of[np.maximum(stale_run_start, 0)],
        carry.stale_since[element_of[stale_positions]])
    age_increment = _age_increments(time_of, previous_time,
                                    stale_positions, stale_since)
    elapsed[stale_positions] = 0.0
    carry.fresh_time = _fold_with_carry(
        carry.fresh_time, element_of, elapsed, n_elements)
    carry.age_integral = _fold_with_carry(
        carry.age_integral, element_of, age_increment, n_elements)

    # Poll bookkeeping on absolute source versions: the carried update
    # count anchors in-slab cumulative counts, and a slab-opening poll
    # compares against the carried last-polled version.
    updates_so_far = np.cumsum(is_update, dtype=np.int64)
    updates_before = ((updates_so_far - is_update)
                      - (updates_so_far[segment_start_of]
                         - is_update[segment_start_of]))
    sync_positions = np.flatnonzero(is_sync)
    sync_elements = element_of[sync_positions]
    sync_versions = (updates_before[sync_positions]
                     + carry.versions[sync_elements])
    previous_versions = np.zeros_like(sync_versions)
    if sync_versions.shape[0]:
        previous_versions[1:] = sync_versions[:-1]
        first_poll = np.empty(sync_versions.shape[0], dtype=bool)
        first_poll[0] = True
        np.not_equal(sync_elements[1:], sync_elements[:-1],
                     out=first_poll[1:])
        previous_versions[first_poll] = carry.last_polled_version[
            sync_elements[first_poll]]
    changed = sync_versions > previous_versions

    # Final per-element state for the next slab (read the old carry
    # before overwriting it).
    final_state_change = last_state_change[ends]
    carry_fresh_present = carry.fresh[present]
    final_fresh = np.where(
        final_state_change >= 0,
        kind_of[np.maximum(final_state_change, 0)] == sync_kind,
        carry_fresh_present)
    final_since = since_position[ends]
    carry.stale_since[present] = np.where(
        final_since >= 0, time_of[np.maximum(final_since, 0)],
        carry.stale_since[present])
    carry.fresh[present] = final_fresh
    carry.last_time[present] = time_of[ends]
    carry.versions += np.bincount(element_of[is_update],
                                  minlength=n_elements
                                  ).astype(np.int64)
    if sync_versions.shape[0]:
        last_poll = np.empty(sync_elements.shape[0], dtype=bool)
        last_poll[-1] = True
        np.not_equal(sync_elements[1:], sync_elements[:-1],
                     out=last_poll[:-1])
        carry.last_polled_version[sync_elements[last_poll]] = (
            sync_versions[last_poll])

    carry.poll_counts += np.bincount(
        sync_elements, minlength=n_elements).astype(np.int64)
    carry.changed_poll_counts += np.bincount(
        sync_elements[changed], minlength=n_elements).astype(np.int64)
    access_positions = np.flatnonzero(is_access)
    carry.access_counts += np.bincount(
        element_of[access_positions],
        minlength=n_elements).astype(np.int64)
    access_fresh = fresh_before[access_positions]
    becomes_fresh = is_sync & ~fresh_before
    carry.n_updates += int(np.count_nonzero(is_update))
    carry.n_syncs += int(sync_positions.shape[0])
    carry.n_accesses += int(access_positions.shape[0])
    carry.useful_syncs += int(np.count_nonzero(changed))
    carry.fresh_accesses += int(np.count_nonzero(access_fresh))
    carry.fresh_count += (int(np.count_nonzero(becomes_fresh))
                          - int(np.count_nonzero(run_start)))

    # Bandwidth folds over syncs in *global* time order.
    sync_sizes = sizes[elements[kinds == sync_kind]]
    carry.bandwidth_used = float(np.bincount(
        np.zeros(sync_sizes.shape[0] + 1, dtype=np.intp),
        weights=np.concatenate([[carry.bandwidth_used], sync_sizes]),
        minlength=1)[0])

    if not tape_flags:
        return None, None, None, None
    return _tape_order_flags(tape.order, fresh_before, run_start,
                             becomes_fresh, sync_positions[changed])


class StreamingReplay:
    """Replay a horizon one whole-period slab at a time.

    Feed consecutive slabs of the merged event tape (global clock,
    split at period boundaries) with :meth:`feed`, then call
    :meth:`finish` for the :class:`SimulationResult`.  The result —
    including telemetry series, freshness ledger, fault accounting,
    fault trace and post-run fault-rng / Gilbert–Elliott chain state
    — is bit-identical to handing the concatenated tape to the
    matching one-shot kernel (:func:`replay_fastpath`,
    :func:`replay_fastpath_faulted` or :func:`replay_fastpath_ge`),
    while holding only O(slab) transient memory plus the O(n)
    :class:`ReplayCarry`.

    Args:
        catalog: The simulated workload.
        frequencies: Per-element sync frequencies, in syncs/period.
        period_length: Clock length of one sync period.
        n_periods: Total periods the fed slabs must cover (may be
            fractional; only the final slab may end off a period
            boundary).
        fault_args: Dispatch arguments from
            :meth:`repro.sim.simulation.Simulation.fault_kernel_args`
            (``kind`` ``"iid"`` or ``"ge"`` plus model, retry policy,
            budget, rng), or None for fault-free replay.
        fault_time_offset: Clock offset added to sync times on the
            fault clock and to ledger stamps, in clock units (whole
            periods).
        record_fault_trace: Whether to build the reference-identical
            per-attempt fault trace.
    """

    def __init__(self, catalog: Catalog, frequencies: np.ndarray, *,
                 period_length: float, n_periods: float,
                 fault_args: dict | None = None,
                 fault_time_offset: float = 0.0,
                 record_fault_trace: bool = False) -> None:
        self._catalog = catalog
        self._frequencies = frequencies
        self._period_length = float(period_length)
        self._n_periods = float(n_periods)
        self._horizon = n_periods * period_length
        self._fault_args = fault_args
        self._fault_time_offset = float(fault_time_offset)
        self._record_fault_trace = record_fault_trace
        self._sizes = np.asarray(catalog.sizes, dtype=float)
        self._planned = float(self._sizes @ frequencies)
        self._carry = ReplayCarry.start(catalog.n_elements)
        self._periods_done = 0.0
        self._next_first_period = 0
        self._fractional_tail = False
        self._finished = False
        # Fault accounting accumulators (channel-equivalent totals).
        n = catalog.n_elements
        self._attempted_polls = 0
        self._made_polls = 0
        self._successful_polls = 0
        self._denied_polls = 0
        self._denied_retries = 0
        self._attempted_bandwidth = 0.0
        self._attempted_poll_counts = np.zeros(n, dtype=np.int64)
        self._failed_poll_counts = np.zeros(n, dtype=np.int64)
        self._trace: list[tuple[float, int, str]] | None = (
            [] if record_fault_trace else None)
        self._chain: np.ndarray | None = None

    @property
    def carry(self) -> ReplayCarry:
        """The cross-slab per-element state (read-mostly for tests)."""
        return self._carry

    def _resolve_slab(self, times: np.ndarray, elements: np.ndarray,
                      kinds: np.ndarray
                      ) -> tuple[FaultResolution, np.ndarray,
                                 np.ndarray]:
        """Resolve one slab's sync outcomes on the shared fault rng."""
        fault_args = self._fault_args
        assert fault_args is not None
        sync_positions = np.flatnonzero(kinds == int(EventKind.SYNC))
        sync_elements = elements[sync_positions]
        fault_times = times[sync_positions] + self._fault_time_offset
        if fault_args.get("kind", "iid") == "ge":
            model = fault_args["model"]
            if self._chain is None:
                self._chain = model.chain_states(
                    self._catalog.n_elements)
            resolution, self._chain = resolve_ge_faults(
                fault_times, sync_elements, self._sizes,
                p_good_to_bad=model.p_good_to_bad,
                p_bad_to_good=model.p_bad_to_good,
                loss_good=model.loss_good, loss_bad=model.loss_bad,
                failure_outcome=model.failure_outcome,
                initial_bad=self._chain,
                retry_policy=fault_args["retry_policy"],
                bandwidth_budget=fault_args["bandwidth_budget"],
                period_length=self._period_length,
                rng=fault_args["rng"],
                record_trace=self._record_fault_trace)
        else:
            resolution = resolve_iid_faults(
                fault_times, sync_elements, self._sizes,
                failure_probability=fault_args["failure_probability"],
                failure_outcome=fault_args["failure_outcome"],
                retry_policy=fault_args["retry_policy"],
                bandwidth_budget=fault_args["bandwidth_budget"],
                period_length=self._period_length,
                rng=fault_args["rng"],
                record_trace=self._record_fault_trace)
        # Fold the slab's accounting into the running totals.  The
        # attempt-bandwidth fold is sequential in sync order, so it
        # continues with the carry-prepend trick like the kernel's.
        attempts = resolution.attempts
        self._attempted_polls += int(attempts.sum())
        self._made_polls += int(np.count_nonzero(attempts))
        self._successful_polls += int(
            np.count_nonzero(resolution.success))
        self._denied_polls += int(np.count_nonzero(resolution.denied))
        self._denied_retries += resolution.denied_retries
        attempt_sizes = np.repeat(self._sizes[sync_elements], attempts)
        self._attempted_bandwidth = float(np.bincount(
            np.zeros(attempt_sizes.shape[0] + 1, dtype=np.intp),
            weights=np.concatenate([[self._attempted_bandwidth],
                                    attempt_sizes]),
            minlength=1)[0])
        self._attempted_poll_counts += np.bincount(
            sync_elements, weights=attempts,
            minlength=self._attempted_poll_counts.shape[0]
        ).astype(np.int64)
        self._failed_poll_counts += np.bincount(
            sync_elements, weights=attempts - resolution.success,
            minlength=self._failed_poll_counts.shape[0]
        ).astype(np.int64)
        if self._trace is not None and resolution.trace is not None:
            self._trace.extend(resolution.trace)
        return resolution, sync_positions, sync_elements

    def feed(self, times: np.ndarray, elements: np.ndarray,
             kinds: np.ndarray, *, n_periods: float) -> None:
        """Fold the next slab of the tape into the replay.

        Args:
            times: Slab event times on the *global* run clock,
                time-ordered, all within the slab's period window.
            elements: Element id per slab event.
            kinds: :class:`~repro.sim.events.EventKind` per event.
            n_periods: Periods this slab covers.  Slabs start at
                whole-period boundaries; a fractional count is
                allowed only for the final slab.
        """
        if self._finished:
            raise SimulationError(
                "StreamingReplay.feed after finish()")
        if self._fractional_tail:
            raise SimulationError(
                "streaming slabs must split at whole periods; only "
                "the final slab may cover a fractional count")
        if n_periods <= 0.0:
            raise SimulationError(
                f"slab must cover > 0 periods, got {n_periods}")
        first_period = self._next_first_period
        if times.shape[0] and (float(times[0])
                               < first_period * self._period_length):
            raise SimulationError(
                "slab events precede the slab's period window")

        failed_per_period = None
        retries_per_period = None
        telemetry_on = obs.telemetry_enabled()
        if self._fault_args is not None:
            resolution, sync_positions, _ = self._resolve_slab(
                times, elements, kinds)
            if telemetry_on:
                n_buckets = max(int(np.ceil(n_periods)) - 1, 0) + 1
                sync_buckets = ((times[sync_positions]
                                 / self._period_length)
                                .astype(np.int64) - first_period)
                failed_per_period = np.bincount(
                    sync_buckets,
                    weights=(resolution.attempts
                             - resolution.success),
                    minlength=n_buckets).astype(np.int64)
                retries_per_period = np.bincount(
                    sync_buckets,
                    weights=(resolution.attempts
                             - (resolution.attempts > 0)),
                    minlength=n_buckets).astype(np.int64)
            keep = np.ones(times.shape[0], dtype=bool)
            keep[sync_positions[~resolution.success]] = False
            kept = np.flatnonzero(keep)
            times = times[kept]
            elements = elements[kept]
            kinds = kinds[kept]

        fresh_base = self._carry.fresh_count
        flags = _replay_tape_chunk(self._carry, self._sizes,
                                   times, elements, kinds,
                                   tape_flags=telemetry_on)
        if telemetry_on:
            _emit_period_series(
                times, elements, kinds, self._sizes,
                flags[0], flags[1], flags[2],
                self._catalog.n_elements,
                period_length=self._period_length,
                n_periods=n_periods, planned=self._planned,
                failed_per_period=failed_per_period,
                retries_per_period=retries_per_period,
                first_period=first_period,
                initial_fresh=fresh_base)
            _emit_ledger(times, elements, kinds, flags[1],
                         time_offset=self._fault_time_offset)

        self._periods_done += n_periods
        whole = int(n_periods)
        if float(whole) != float(n_periods):
            self._fractional_tail = True
        self._next_first_period = first_period + max(whole, 1)

    def finish(self) -> SimulationResult:
        """Flush the horizon and assemble the result."""
        if self._finished:
            raise SimulationError("StreamingReplay.finish called twice")
        if abs(self._periods_done - self._n_periods) > 1e-9:
            raise SimulationError(
                f"streamed slabs cover {self._periods_done} periods, "
                f"expected {self._n_periods}")
        self._finished = True
        carry = self._carry
        horizon = self._horizon
        catalog = self._catalog

        fault_args = self._fault_args
        if (fault_args is not None
                and fault_args.get("kind", "iid") == "ge"
                and self._chain is not None):
            fault_args["model"].set_chain_states(self._chain)

        # Horizon flush: identical operations to the one-shot kernel
        # (and so to FreshnessMonitor.close()), on the carried state.
        remaining = horizon - carry.last_time
        if (remaining < -1e-9).any():
            raise SimulationError(
                "events were recorded beyond the horizon")
        fresh_time = carry.fresh_time + (np.maximum(remaining, 0.0)
                                         * carry.fresh)
        age_integral = carry.age_integral
        stale = ~carry.fresh & (remaining > 0.0)
        if stale.any():
            since = carry.stale_since[stale]
            start = carry.last_time[stale]
            age_integral = age_integral.copy()
            age_integral[stale] += 0.5 * (
                (horizon - since) ** 2 - (start - since) ** 2)
        element_freshness = fresh_time / horizon
        element_age = age_integral / horizon

        p = catalog.access_probabilities
        perceived_by_accesses = (
            carry.fresh_accesses / carry.n_accesses
            if carry.n_accesses
            else float(p @ element_freshness))

        accounting: _FaultAccounting | None = None
        engine = "fastpath"
        if fault_args is not None:
            engine = ("fastpath_ge"
                      if fault_args.get("kind", "iid") == "ge"
                      else "fastpath_faulted")
            accounting = _FaultAccounting(
                attempted_polls=self._attempted_polls,
                failed_polls=(self._attempted_polls
                              - self._successful_polls),
                retries=self._attempted_polls - self._made_polls,
                denied_polls=self._denied_polls,
                denied_retries=self._denied_retries,
                failed_syncs=(self._made_polls
                              - self._successful_polls),
                attempted_bandwidth=self._attempted_bandwidth,
                attempted_poll_counts=self._attempted_poll_counts,
                failed_poll_counts=self._failed_poll_counts,
            )

        if obs.telemetry_enabled():
            if accounting is not None:
                outcome = (
                    fault_args["model"].failure_outcome
                    if engine == "fastpath_ge"
                    else fault_args["failure_outcome"])
                _emit_fault_counters(accounting, outcome)
            _emit_monitor_close(element_freshness, element_age,
                                carry.n_accesses,
                                carry.fresh_accesses, horizon)
            obs.counter_add("sim.runs")
            obs.counter_add(f"sim.{engine}_runs")
            obs.counter_add(f"sim.engine.{engine}")
            obs.counter_add("sim.syncs", carry.n_syncs)
            obs.counter_add("sim.useful_syncs", carry.useful_syncs)
            obs.counter_add("sim.updates", carry.n_updates)
            obs.counter_add("sim.accesses", carry.n_accesses)
            obs.gauge_set("sim.bandwidth_used", carry.bandwidth_used)
            obs.gauge_set("sim.monitored_perceived_freshness",
                          float(perceived_by_accesses))
            obs.gauge_set("sim.monitored_general_freshness",
                          float(element_freshness.mean()))
            if accounting is not None:
                obs.gauge_set("sim.attempted_bandwidth",
                              accounting.attempted_bandwidth)
                obs.gauge_set(
                    "sim.poll_failure_fraction",
                    (accounting.failed_polls
                     / accounting.attempted_polls
                     if accounting.attempted_polls else 0.0))

        if accounting is None:
            return SimulationResult(
                catalog=catalog,
                frequencies=self._frequencies,
                horizon=horizon,
                period_length=self._period_length,
                n_updates=carry.n_updates,
                n_syncs=carry.n_syncs,
                n_accesses=carry.n_accesses,
                useful_syncs=carry.useful_syncs,
                bandwidth_used=carry.bandwidth_used,
                monitored_perceived_freshness=float(
                    perceived_by_accesses),
                monitored_time_perceived=float(p @ element_freshness),
                monitored_general_freshness=float(
                    element_freshness.mean()),
                element_time_freshness=element_freshness,
                element_time_age=element_age,
                monitored_perceived_age=float(p @ element_age),
                access_counts=carry.access_counts,
                poll_counts=carry.poll_counts,
                changed_poll_counts=carry.changed_poll_counts,
                attempted_polls=carry.n_syncs,
                attempted_bandwidth=carry.bandwidth_used,
            )
        return SimulationResult(
            catalog=catalog,
            frequencies=self._frequencies,
            horizon=horizon,
            period_length=self._period_length,
            n_updates=carry.n_updates,
            n_syncs=carry.n_syncs,
            n_accesses=carry.n_accesses,
            useful_syncs=carry.useful_syncs,
            bandwidth_used=carry.bandwidth_used,
            monitored_perceived_freshness=float(perceived_by_accesses),
            monitored_time_perceived=float(p @ element_freshness),
            monitored_general_freshness=float(element_freshness.mean()),
            element_time_freshness=element_freshness,
            element_time_age=element_age,
            monitored_perceived_age=float(p @ element_age),
            access_counts=carry.access_counts,
            poll_counts=carry.poll_counts,
            changed_poll_counts=carry.changed_poll_counts,
            attempted_polls=accounting.attempted_polls,
            failed_polls=accounting.failed_polls,
            unreachable_polls=0,
            retries=accounting.retries,
            breaker_skips=0,
            denied_polls=accounting.denied_polls,
            attempted_bandwidth=accounting.attempted_bandwidth,
            attempted_poll_counts=accounting.attempted_poll_counts,
            failed_poll_counts=accounting.failed_poll_counts,
            unreachable_poll_counts=np.zeros(catalog.n_elements,
                                             dtype=np.int64),
            unreachable_elements=None,
            fault_trace=(tuple(self._trace)
                         if self._record_fault_trace
                         and self._trace is not None else None),
        )
