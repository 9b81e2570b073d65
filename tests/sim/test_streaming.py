"""Streaming slab engine: bit-identity, sorted draws, chunked runs.

The contract under test has two distinct strengths, per the module
docs: the *replay* layer (``StreamingReplay`` fed slab-split tapes)
is bit-identical to one-shot replay of the concatenated tape — every
result field, the telemetry tape, the freshness ledger and the
post-run fault-rng / Gilbert–Elliott chain state — while the
*generation* layer (``chunk_periods`` drawing per-slab spawn
children) is deterministic and statistically, not bitwise,
equivalent to the one-shot stream.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from repro.core.scheduler import SyncSchedule
from repro.errors import ValidationError
from repro.faults.model import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.numerics import sorting
from repro.obs import registry as obs
from repro.sim.events import EventKind, merge_sorted_blocks
from repro.sim.fastpath import ReplayArena, ReplayCarry, StreamingReplay
from repro.sim.generators import RequestGenerator, UpdateGenerator
from repro.sim.simulation import Simulation, SimulationResult
from repro.workloads.catalog import Catalog


def random_catalog(rng, n, sized=False):
    weights = rng.uniform(0.01, 1.0, n)
    rates = rng.uniform(0.05, 8.0, n)
    sizes = rng.uniform(0.2, 5.0, n) if sized else None
    return Catalog(access_probabilities=weights / weights.sum(),
                   change_rates=rates, sizes=sizes)


def make_sim(catalog, frequencies, seed, mode, **extra):
    kwargs: dict = {}
    if mode == "iid":
        kwargs = dict(fault_plan=FaultPlan.iid(0.3),
                      retry_policy=RetryPolicy(max_retries=2),
                      fault_rng=np.random.default_rng(seed + 7))
    elif mode == "ge":
        kwargs = dict(fault_plan=FaultPlan.bursty(
                          0.2, 0.4, loss_good=0.05, loss_bad=0.9),
                      retry_policy=RetryPolicy(max_retries=2),
                      fault_rng=np.random.default_rng(seed + 7))
    kwargs.update(extra)
    return Simulation(catalog, frequencies, request_rate=60.0,
                      rng=np.random.default_rng(seed), **kwargs)


def assert_results_identical(ref: SimulationResult,
                             got: SimulationResult) -> None:
    """Field-by-field bit comparison of two simulation results."""
    for field in dataclasses.fields(SimulationResult):
        a = getattr(ref, field.name)
        b = getattr(got, field.name)
        if field.name == "catalog":
            assert a is b or np.array_equal(a.change_rates,
                                            b.change_rates), field.name
        elif isinstance(a, np.ndarray):
            assert b is not None, field.name
            assert a.dtype == b.dtype, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, (field.name, a, b)


def grab_telemetry():
    """Registry contents with span timings stripped (wall clock)."""
    registry = obs.get_registry()
    events = [dict(event) for event in registry.events
              if event.get("kind") != "span"]
    for event in events:
        event.pop("t", None)
        event.pop("seq", None)
    ledger = (registry.ledger.snapshot()
              if hasattr(registry.ledger, "snapshot") else None)
    return (events, dict(registry.counters), dict(registry.gauges),
            ledger)


def split_feed(streaming, tape, n_periods, chunk):
    """Feed a full tape slab by slab, splitting at period bounds."""
    times, elements, kinds = tape
    done = 0.0
    while done < n_periods - 1e-12:
        last = min(done + chunk, n_periods)
        lo = np.searchsorted(times, done, side="left")
        hi = np.searchsorted(times, last, side="left")
        streaming.feed(times[lo:hi], elements[lo:hi], kinds[lo:hi],
                       n_periods=last - done)
        done = last
    return streaming.finish()


class TestStreamingReplayBitIdentity:
    """Slab-split replay of one tape ≡ the one-shot kernel."""

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge"])
    def test_chunked_replay_matches_one_shot(self, mode):
        """Sweep random worlds and chunk sizes (ragged finals
        included): results, telemetry, ledger, fault trace and
        post-run fault-rng state must all be bit-identical."""
        rng0 = np.random.default_rng(5)
        for trial in range(6):
            n = int(rng0.integers(3, 30))
            catalog = random_catalog(rng0, n,
                                     sized=bool(rng0.integers(0, 2)))
            frequencies = rng0.uniform(0.0, 4.0, n)
            n_periods = float(rng0.choice([2.0, 3.0, 2.5]))
            chunk = int(rng0.integers(1, 4))
            seed = int(rng0.integers(0, 2**31))
            trace = mode != "quiet"

            obs.reset_telemetry()
            obs.enable_telemetry()
            try:
                ref_sim = make_sim(catalog, frequencies, seed, mode,
                                   record_fault_trace=trace)
                ref = ref_sim.run(n_periods=n_periods)
                ref_grab = grab_telemetry()
                ref_fault_state = (
                    ref_sim._fault_rng.bit_generator.state
                    if mode != "quiet" else None)

                obs.reset_telemetry()
                obs.enable_telemetry()
                sim = make_sim(catalog, frequencies, seed, mode,
                               record_fault_trace=trace)
                tape = sim.build_tape(n_periods)
                streaming = StreamingReplay(
                    catalog, frequencies, period_length=1.0,
                    n_periods=n_periods,
                    fault_args=sim.fault_kernel_args(),
                    record_fault_trace=trace)
                chunked = split_feed(streaming, tape, n_periods,
                                     chunk)
                got_grab = grab_telemetry()
            finally:
                obs.disable_telemetry()

            context = (mode, trial, chunk, n_periods)
            assert_results_identical(ref, chunked)
            assert ref_grab == got_grab, context
            if mode != "quiet":
                assert (sim._fault_rng.bit_generator.state
                        == ref_fault_state), context

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           chunk=st.integers(min_value=1, max_value=4),
           mode=st.sampled_from(["quiet", "iid", "ge"]),
           n_periods=st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=20, deadline=None)
    def test_chunked_replay_property(self, seed, chunk, mode,
                                     n_periods):
        """Hypothesis sweep: any (world, chunk, fault route, ragged
        or whole horizon) — slab-fed replay of one tape must equal
        the one-shot result field for field."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        catalog = random_catalog(rng, n,
                                 sized=bool(rng.integers(0, 2)))
        frequencies = rng.uniform(0.0, 4.0, n)
        ref = make_sim(catalog, frequencies, seed, mode).run(
            n_periods=n_periods)
        sim = make_sim(catalog, frequencies, seed, mode)
        tape = sim.build_tape(n_periods)
        streaming = StreamingReplay(
            catalog, frequencies, period_length=1.0,
            n_periods=n_periods, fault_args=sim.fault_kernel_args())
        chunked = split_feed(streaming, tape, n_periods, chunk)
        assert_results_identical(ref, chunked)

    def test_carry_footprint_constant_across_slabs(self):
        """The cross-slab state is O(elements): feeding more slabs
        must not grow it."""
        rng = np.random.default_rng(3)
        catalog = random_catalog(rng, 50)
        frequencies = rng.uniform(0.5, 3.0, 50)
        sim = make_sim(catalog, frequencies, 9, "quiet")
        n_periods = 4.0
        tape = sim.build_tape(n_periods)
        times, elements, kinds = tape
        streaming = StreamingReplay(catalog, frequencies,
                                    period_length=1.0,
                                    n_periods=n_periods)
        baseline = streaming.carry.nbytes()
        done = 0.0
        sizes = []
        while done < n_periods:
            last = done + 1.0
            lo = np.searchsorted(times, done, side="left")
            hi = np.searchsorted(times, last, side="left")
            streaming.feed(times[lo:hi], elements[lo:hi],
                           kinds[lo:hi], n_periods=1.0)
            sizes.append(streaming.carry.nbytes())
            done = last
        assert len(sizes) >= 3
        assert all(size == baseline for size in sizes), sizes
        streaming.finish()


class TestChunkedRun:
    """``Simulation.run(chunk_periods=K)`` end to end."""

    def setup_world(self, n=400, seed=21):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n, sized=True)
        frequencies = rng.uniform(0.0, 2.0, n)
        return catalog, frequencies

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge"])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunked_run_deterministic(self, mode, chunk):
        """Two same-seed chunked runs are bit-identical (fresh fault
        rngs built per run — the spawn keys are derived, not
        shared)."""
        catalog, frequencies = self.setup_world()
        first = make_sim(catalog, frequencies, 13, mode).run(
            2.5, chunk_periods=chunk)
        second = make_sim(catalog, frequencies, 13, mode).run(
            2.5, chunk_periods=chunk)
        assert_results_identical(first, second)

    @pytest.mark.parametrize("mode", ["quiet", "iid"])
    def test_chunked_run_statistically_matches_one_shot(self, mode):
        """Chunked generation uses spawn children, so streams differ
        bitwise from one-shot — but schedules are deterministic
        (n_syncs exact) and the Poisson workloads must agree within
        sampling error."""
        catalog, frequencies = self.setup_world(n=2000, seed=8)
        one_shot = make_sim(catalog, frequencies, 17, mode).run(4.0)
        chunked = make_sim(catalog, frequencies, 17, mode).run(
            4.0, chunk_periods=1)
        assert chunked.n_syncs == one_shot.n_syncs
        for attr in ("n_updates", "n_accesses"):
            a = getattr(one_shot, attr)
            b = getattr(chunked, attr)
            sigma = np.sqrt(max(a, 1.0))
            assert abs(a - b) < 6.0 * sigma, (attr, a, b)
        assert abs(one_shot.monitored_perceived_freshness
                   - chunked.monitored_perceived_freshness) < 0.05

    def test_chunk_sizes_agree_on_schedule(self):
        """Different slab sizes redraw the workload but replay the
        same deterministic sync schedule."""
        catalog, frequencies = self.setup_world()
        runs = [make_sim(catalog, frequencies, 29, "quiet").run(
                    3.0, chunk_periods=chunk)
                for chunk in (1, 2, 3)]
        assert len({run.n_syncs for run in runs}) == 1

    def test_spawnless_rng_derives_children_by_draws(self):
        """A hand-built bit generator whose seed sequence cannot
        spawn takes the documented fallback: one ``integers`` draw
        per slab seeds each child, deterministically, and the
        ``sim.streaming.spawn_fallback`` counter records it."""

        class FixedSeedSequence(ISeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                return np.arange(1, n_words + 1, dtype=dtype)

        def hand_built_rng():
            return np.random.Generator(
                np.random.PCG64(FixedSeedSequence()))

        with pytest.raises(TypeError):
            hand_built_rng().spawn(1)
        catalog, frequencies = self.setup_world()
        n_periods, chunk = 5.0, 2
        n_slabs = 3

        def chunked_run():
            sim = Simulation(catalog, frequencies, request_rate=60.0,
                             rng=hand_built_rng())
            before = sim._rng.bit_generator.state
            with obs.telemetry() as registry:
                result = sim.run(n_periods, chunk_periods=chunk)
            return (result, before, sim._rng.bit_generator.state,
                    registry.counters)

        first, before, after, counters = chunked_run()
        second, _, _, _ = chunked_run()
        assert_results_identical(first, second)
        probe = hand_built_rng()
        probe.bit_generator.state = before
        for _ in range(n_slabs):
            probe.integers(np.iinfo(np.int64).max)
        assert after == probe.bit_generator.state
        assert counters["sim.streaming.spawn_fallback"] == 1.0

    def test_chunk_periods_validated(self):
        catalog, frequencies = self.setup_world(n=10)
        sim = make_sim(catalog, frequencies, 1, "quiet")
        with pytest.raises(ValidationError):
            sim.run(2.0, chunk_periods=0)
        with pytest.raises(ValidationError):
            sim.run(2.0, chunk_periods=1.5)
        with pytest.raises(ValidationError):
            sim.run(2.0, engine="reference", chunk_periods=1)


class TestEventsBetween:
    def test_windows_partition_the_horizon(self):
        """Adjacent ``events_between`` windows must reproduce
        ``events_until`` exactly — same times, same elements, no
        event duplicated or dropped at a boundary."""
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            frequencies = rng.uniform(0.0, 5.0, n)
            schedule = SyncSchedule.from_frequencies(
                frequencies, period_length=1.0)
            horizon = float(rng.choice([2.0, 3.5, 5.0]))
            full_times, full_elements = schedule.events_until(horizon)
            cuts = np.sort(rng.uniform(0.0, horizon,
                                       int(rng.integers(1, 5))))
            bounds = [0.0, *cuts.tolist(), horizon]
            times_parts, element_parts = [], []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi <= lo:
                    continue
                t, e = schedule.events_between(lo, hi)
                times_parts.append(t)
                element_parts.append(e)
            times = np.concatenate(times_parts)
            elements = np.concatenate(element_parts)
            assert times.tobytes() == full_times.tobytes(), trial
            assert np.array_equal(elements, full_elements), trial


class TestStableTimeArgsort:
    """The bucketed radix sort must equal a direct stable argsort."""

    def direct(self, times):
        return np.argsort(times, kind="stable")

    def test_small_inputs_fall_through(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 10.0, 1000)
        assert np.array_equal(sorting.stable_time_argsort(times),
                              self.direct(times))

    def test_large_random_and_tie_heavy(self):
        rng = np.random.default_rng(1)
        big = sorting.BUCKET_SORT_MIN + 1017
        smooth = rng.uniform(0.0, 4.0, big)
        ties = rng.integers(0, 50, big).astype(float) / 16.0
        for times in (smooth, ties):
            assert np.array_equal(
                sorting.stable_time_argsort(times),
                self.direct(times))

    def test_degenerate_all_equal(self):
        times = np.full(sorting.BUCKET_SORT_MIN + 3, 2.5)
        assert np.array_equal(sorting.stable_time_argsort(times),
                              np.arange(times.shape[0]))

    def test_nonfinite_falls_back(self):
        rng = np.random.default_rng(4)
        times = rng.uniform(0.0, 1.0, sorting.BUCKET_SORT_MIN + 5)
        times[::1000] = np.inf
        assert np.array_equal(sorting.stable_time_argsort(times),
                              self.direct(times))


def lexsort_merge(updates, syncs, accesses):
    """Independent oracle: lexsort (kind, time) over the kind-ordered
    concatenation [updates, syncs, accesses]."""
    blocks = (updates, syncs, accesses)
    times = np.concatenate([block[0] for block in blocks])
    elements = np.concatenate([block[1] for block in blocks])
    kinds = np.concatenate([
        np.full(block[0].shape[0], int(kind), dtype=np.int8)
        for block, kind in zip(blocks, EventKind)])
    order = np.lexsort((kinds, times))
    return times[order], elements[order].astype(np.int32), kinds[order]


def assert_tapes_equal(got, want, label=""):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype, label
        assert np.array_equal(a, b), label


def sorted_block(rng, count, n, grid=12):
    times = np.sort(rng.integers(0, grid, count).astype(float) / 4.0)
    return times, rng.integers(0, n, count).astype(np.int64)


class TestMergeSortedBlocks:
    """The run-merge of three time-sorted blocks ≡ a lexsort oracle."""

    def test_matches_lexsort_oracle(self):
        """Tie-heavy random tapes (grid times force cross-kind ties,
        exercising the update < sync < access priority)."""
        rng = np.random.default_rng(6)
        for trial in range(60):
            n = int(rng.integers(2, 20))
            blocks = [sorted_block(rng, int(rng.integers(0, 30)), n)
                      for _ in range(3)]
            flat = [array for block in blocks for array in block]
            assert_tapes_equal(merge_sorted_blocks(*flat, n_elements=n),
                               lexsort_merge(*blocks), trial)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_one_empty_block(self, empty):
        rng = np.random.default_rng(11 + empty)
        blocks = [sorted_block(rng, 25, 7) for _ in range(3)]
        blocks[empty] = (np.empty(0), np.empty(0, dtype=np.int64))
        flat = [array for block in blocks for array in block]
        assert_tapes_equal(merge_sorted_blocks(*flat, n_elements=7),
                           lexsort_merge(*blocks))

    def test_all_blocks_empty(self):
        empty = (np.empty(0), np.empty(0, dtype=np.int64))
        times, elements, kinds = merge_sorted_blocks(
            *empty, *empty, *empty, n_elements=3)
        assert times.shape == elements.shape == kinds.shape == (0,)
        assert (times.dtype, elements.dtype, kinds.dtype) == (
            np.float64, np.int32, np.int8)

    def test_every_event_at_one_instant(self):
        """One timestamp everywhere: the tape is the kind-ordered
        concatenation itself, every block in its input order."""
        rng = np.random.default_rng(13)
        blocks = [(np.full(count, 1.5),
                   rng.integers(0, 9, count).astype(np.int64))
                  for count in (17, 5, 11)]
        flat = [array for block in blocks for array in block]
        got = merge_sorted_blocks(*flat, n_elements=9)
        assert_tapes_equal(got, lexsort_merge(*blocks))
        assert np.array_equal(
            got[1], np.concatenate([b[1] for b in blocks]))
        assert np.array_equal(got[2], np.repeat([0, 1, 2], [17, 5, 11]))

    def test_length_one_blocks(self):
        for times in ((1.0, 1.0, 1.0), (2.0, 1.0, 0.0), (0.0, 1.0, 2.0),
                      (1.0, 0.0, 1.0)):
            blocks = [(np.array([t]), np.array([k], dtype=np.int64))
                      for k, t in enumerate(times)]
            flat = [array for block in blocks for array in block]
            assert_tapes_equal(merge_sorted_blocks(*flat, n_elements=3),
                               lexsort_merge(*blocks), times)

    def test_one_shot_route_sorts_raw_updates(self):
        """Raw (unsorted, tie-heavy) update draws, stable-sorted per
        stream and then run-merged, equal the oracle over the raw
        concatenation — the one-shot tape stays bit-identical."""
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(2, 20))
            raw_count = int(rng.integers(0, 40))
            raw = (rng.integers(0, 12, raw_count).astype(float) / 4.0,
                   rng.integers(0, n, raw_count).astype(np.int64))
            syncs = sorted_block(rng, int(rng.integers(0, 30)), n)
            accesses = sorted_block(rng, int(rng.integers(0, 30)), n)
            order = sorting.stable_time_argsort(raw[0])
            got = merge_sorted_blocks(raw[0][order], raw[1][order],
                                      *syncs, *accesses, n_elements=n)
            assert_tapes_equal(got, lexsort_merge(raw, syncs, accesses),
                               trial)

    @pytest.mark.parametrize("n_periods", [0.75, 3.0])
    def test_build_tape_matches_merge_streams(self, n_periods):
        """``build_tape``'s fused route against the per-stream sort +
        lexsort route, from identically seeded simulations."""
        catalog = random_catalog(np.random.default_rng(19), 40)
        frequencies = np.full(40, 2.0)
        tapes = [make_sim(catalog, frequencies, 23, "quiet").build_tape(
                     n_periods, fused=fused) for fused in (True, False)]
        assert tapes[0][0].shape[0] > 0
        assert_tapes_equal(*tapes)


class TestSortedDraws:
    """``draw_window_sorted`` is exactly distributed, pre-ordered."""

    def world(self, n=300):
        rng = np.random.default_rng(12)
        return random_catalog(rng, n)

    def test_update_draws_sorted_and_in_range(self):
        catalog = self.world()
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(0))
        times, elements = generator.draw_window_sorted(2.0, 5.0)
        assert np.all(np.diff(times) >= 0.0)
        assert times.min() >= 2.0 and times.max() < 5.0
        assert elements.shape == times.shape

    def test_update_counts_match_poisson_rates(self):
        """Per-element totals over many windows are Poisson with the
        catalog rate: every element's count must sit within 6σ."""
        catalog = self.world(n=40)
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(1))
        counts = np.zeros(40)
        windows = 200
        for _ in range(windows):
            _, elements = generator.draw_window_sorted(0.0, 1.0)
            counts += np.bincount(elements, minlength=40)
        mean = catalog.change_rates * windows
        z = (counts - mean) / np.sqrt(mean)
        assert np.abs(z).max() < 6.0, z

    def test_request_draws_follow_profile(self):
        catalog = self.world(n=30)
        generator = RequestGenerator(
            catalog, rate=500.0, rng=np.random.default_rng(2))
        counts = np.zeros(30)
        windows = 40
        for _ in range(windows):
            times, elements = generator.draw_window_sorted(0.0, 1.0)
            assert np.all(np.diff(times) >= 0.0)
            counts += np.bincount(elements, minlength=30)
        total = counts.sum()
        expected = catalog.access_probabilities * total
        z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
        assert np.abs(z).max() < 6.0, z

    def test_time_instants_are_uniform(self):
        """Arrival instants from exponential spacings must be
        uniform over the window (first two moments within 6σ)."""
        generator = UpdateGenerator(
            self.world(), rng=np.random.default_rng(3))
        times, _ = generator.draw_window_sorted(0.0, 1.0)
        for _ in range(30):
            more, _ = generator.draw_window_sorted(0.0, 1.0)
            times = np.concatenate([times, more])
        count = times.shape[0]
        assert abs(times.mean() - 0.5) < 6.0 * np.sqrt(
            1.0 / 12.0 / count)
        assert abs(times.var() - 1.0 / 12.0) < 0.01


class TestArenaReuse:
    def test_no_growth_across_steady_windows(self):
        """Repeated same-length windows reuse the arena scratch: the
        footprint may step up while Poisson window sizes explore
        their range (geometric doubling, not per-window creep) and
        must then sit flat — the last three of a dozen windows all
        see an unchanged arena."""
        catalog = random_catalog(np.random.default_rng(7), 200)
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(7))
        requests = RequestGenerator(
            catalog, rate=300.0, rng=np.random.default_rng(8))
        arena = ReplayArena()
        footprints = []
        for start in range(12):
            generator.draw_window_sorted(float(start),
                                         float(start + 1),
                                         arena=arena)
            requests.draw_window_sorted(float(start),
                                        float(start + 1),
                                        arena=arena)
            footprints.append(arena.nbytes())
        assert footprints == sorted(footprints), footprints
        assert len(set(footprints[-3:])) == 1, footprints
        # Doubling keeps total distinct sizes logarithmic: a dozen
        # windows must not have re-sized a dozen times.
        assert len(set(footprints)) <= 4, footprints

    def test_geometric_growth_path(self):
        """An outgrown slot doubles instead of creeping: repeated
        +1 requests must not reallocate every call."""
        arena = ReplayArena()
        arena.take("slot", 100, np.int64)
        first = arena.nbytes()
        arena.take("slot", 101, np.int64)
        doubled = arena.nbytes()
        assert doubled == 2 * first
        for size in range(102, 200):
            arena.take("slot", size, np.int64)
        assert arena.nbytes() == doubled

    def test_carry_nbytes_tracks_elements_only(self):
        small = ReplayCarry.start(100)
        large = ReplayCarry.start(1000)
        assert large.nbytes() == 10 * small.nbytes()
