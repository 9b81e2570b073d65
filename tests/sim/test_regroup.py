"""Radix regroup and on-demand tape flags in the replay kernels.

The one-shot and slab kernels regroup the tape per element with the
O(n) radix permutation and scatter their per-event flags back to tape
order only when a caller asks.  Neither may move a single bit: the
measurements with and without flags must be identical, and a
telemetry-on run must still emit the reference loop's period series
and freshness ledger.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.freshener import PartitionedFreshener
from repro.faults.model import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs import registry as obs
from repro.sim.fastpath import (
    ReplayCarry,
    StreamingReplay,
    _replay_tape,
    _replay_tape_chunk,
)
from repro.sim.simulation import Simulation
from repro.workloads.presets import ExperimentSetup, build_catalog

from tests.conftest import random_catalog

FLAG_FIELDS = ("fresh_before_global", "run_start_global",
               "becomes_fresh_global", "changed_sync_global")


def random_tape(seed: int, n: int = 60, n_periods: float = 3.0):
    rng = np.random.default_rng(seed)
    catalog = random_catalog(rng, n, sized=True)
    frequencies = rng.uniform(0.0, 4.0, n)
    sim = Simulation(catalog, frequencies, request_rate=90.0,
                     rng=np.random.default_rng(seed + 1))
    return catalog, sim.build_tape(n_periods)


def assert_same_bits(a, b, name: str) -> None:
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    else:
        assert a == b, name


class TestTapeFlagsOnDemand:

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_shot_kernel_ignores_the_flag_request(self, seed):
        catalog, tape = random_tape(seed)
        sizes = np.asarray(catalog.sizes, dtype=float)
        plain = _replay_tape(catalog.n_elements, sizes, *tape,
                             horizon=3.0)
        flagged = _replay_tape(catalog.n_elements, sizes, *tape,
                               horizon=3.0, tape_flags=True)
        for field in dataclasses.fields(plain):
            if field.name in FLAG_FIELDS:
                assert getattr(plain, field.name) is None
                flags = getattr(flagged, field.name)
                assert flags.dtype == bool
                assert flags.shape == tape[0].shape
            else:
                assert_same_bits(getattr(plain, field.name),
                                 getattr(flagged, field.name),
                                 field.name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_slab_kernel_ignores_the_flag_request(self, seed):
        catalog, (times, elements, kinds) = random_tape(seed)
        sizes = np.asarray(catalog.sizes, dtype=float)
        plain = ReplayCarry.start(catalog.n_elements)
        flagged = ReplayCarry.start(catalog.n_elements)
        bounds = np.searchsorted(times, [0.0, 1.0, 2.0, 3.0])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slab = (times[lo:hi], elements[lo:hi], kinds[lo:hi])
            none = _replay_tape_chunk(plain, sizes, *slab)
            flags = _replay_tape_chunk(flagged, sizes, *slab,
                                       tape_flags=True)
            assert none == (None, None, None, None)
            assert all(flag.shape == (hi - lo,) for flag in flags)
            for field in dataclasses.fields(plain):
                assert_same_bits(getattr(plain, field.name),
                                 getattr(flagged, field.name),
                                 field.name)


def grab(registry):
    periods = [{k: v for k, v in record.items() if k not in ("seq", "t")}
               for record in registry.events_of_kind("sim.period")]
    return periods, registry.ledger


class TestTelemetryOnRunsAtScale:
    """10⁴-element runs with telemetry on: the kernels' period series
    and ledger equal the reference loop's for the same tape."""

    N = 10_000

    @pytest.fixture(scope="class")
    def world(self):
        setup = ExperimentSetup(n_objects=self.N,
                                updates_per_period=1.0 * self.N,
                                syncs_per_period=0.3 * self.N,
                                theta=1.0, update_std_dev=2.0)
        catalog = build_catalog(setup, seed=0)
        plan = PartitionedFreshener(n_partitions=16).plan(
            catalog, 0.3 * self.N)
        return catalog, plan.frequencies

    @staticmethod
    def make_sim(catalog, frequencies, faulted: bool):
        extra = {}
        if faulted:
            extra = dict(fault_plan=FaultPlan.iid(0.2),
                         retry_policy=RetryPolicy(max_retries=2),
                         fault_rng=np.random.default_rng(11))
        return Simulation(catalog, frequencies,
                          request_rate=0.5 * catalog.n_elements,
                          rng=np.random.default_rng(5), **extra)

    def reference(self, world, faulted: bool):
        with obs.telemetry() as registry:
            self.make_sim(*world, faulted).run(2.0, engine="reference")
        return grab(registry)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_one_shot_kernels_match_reference(self, world, faulted):
        with obs.telemetry() as registry:
            self.make_sim(*world, faulted).run(2.0, engine="fastpath")
        periods, ledger = grab(registry)
        ref_periods, ref_ledger = self.reference(world, faulted)
        assert len(periods) == 2
        assert periods == ref_periods
        assert ledger == ref_ledger
        # One regroup of the kept tape; ids below 2¹⁶ take one pass.
        events = registry.histograms["sim.regroup.events"]
        assert events.count == 1
        expected = sum(record["syncs"] + record["updates"]
                       + record["accesses"] for record in periods)
        assert events.total == expected
        passes = registry.histograms["sim.regroup.radix_passes"]
        assert passes.count == 1 and passes.total == 1.0

    def test_streaming_kernel_matches_reference(self, world):
        catalog, frequencies = world
        tape = self.make_sim(catalog, frequencies, False).build_tape(2.0)
        times = tape[0]
        with obs.telemetry() as registry:
            streaming = StreamingReplay(catalog, frequencies,
                                        period_length=1.0, n_periods=2.0)
            lo, mid, hi = np.searchsorted(times, [0.0, 1.0, 2.0])
            for a, b in ((lo, mid), (mid, hi)):
                streaming.feed(*(column[a:b] for column in tape),
                               n_periods=1.0)
            streaming.finish()
        periods, ledger = grab(registry)
        ref_periods, ref_ledger = self.reference(world, False)
        assert periods == ref_periods
        assert ledger == ref_ledger
        assert registry.histograms["sim.regroup.events"].count == 2
