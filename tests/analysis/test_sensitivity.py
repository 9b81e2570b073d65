"""Tests for the sensitivity/ablation experiment runners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sensitivity
from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.core.partitioning import PartitioningStrategy, partition_catalog
from repro.core.representatives import build_representatives
from repro.errors import ValidationError
from repro.obs import registry as obs
from repro.workloads.alignment import Alignment
from repro.workloads.presets import ExperimentSetup, build_catalog

TINY = ExperimentSetup(n_objects=80, updates_per_period=160.0,
                       syncs_per_period=40.0, theta=1.0,
                       update_std_dev=1.0)
TINY_SPREAD = ExperimentSetup(n_objects=120, updates_per_period=240.0,
                              syncs_per_period=60.0, theta=1.0,
                              update_std_dev=2.0)


class TestBandwidthSensitivity:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sensitivity.bandwidth_sensitivity(
            setup=TINY, ratios=np.array([0.05, 0.25, 1.0, 3.0]))

    def test_both_improve_with_bandwidth(self, sweep):
        for label in ("PF_TECHNIQUE", "GF_TECHNIQUE"):
            y = sweep.get(label).y
            assert (np.diff(y) > 0.0).all()

    def test_advantage_shrinks_at_saturation(self, sweep):
        advantage = sweep.get("PF_ADVANTAGE").y
        assert advantage[-1] < advantage.max()
        assert (advantage >= -1e-9).all()

    def test_warm_start_reduces_allocator_evaluations(self):
        """Adjacent sweep points share a warm μ bracket, so the sweep
        must spend fewer allocator evaluations (full inversion passes)
        than planning every point from scratch."""
        ratios = np.array([0.1, 0.15, 0.25, 0.4, 0.6, 1.0])
        with obs.telemetry() as registry:
            warm_sweep = sensitivity.bandwidth_sensitivity(
                setup=TINY, ratios=ratios)
        warm = registry.counters.get("waterfill.evaluations", 0.0)
        catalog = build_catalog(TINY, alignment=Alignment.SHUFFLED,
                                seed=0)
        cold_pf = np.zeros_like(ratios)
        cold_gf = np.zeros_like(ratios)
        with obs.telemetry() as registry:
            for index, ratio in enumerate(ratios):
                bandwidth = float(ratio) * TINY.updates_per_period
                cold_pf[index] = PerceivedFreshener().plan(
                    catalog, bandwidth).perceived_freshness
                cold_gf[index] = GeneralFreshener().plan(
                    catalog, bandwidth).perceived_freshness
        cold = registry.counters.get("waterfill.evaluations", 0.0)
        assert warm < cold
        # Warm starting is a speedup, not a different answer.
        np.testing.assert_allclose(warm_sweep.get("PF_TECHNIQUE").y,
                                   cold_pf, rtol=1e-9)
        np.testing.assert_allclose(warm_sweep.get("GF_TECHNIQUE").y,
                                   cold_gf, rtol=1e-9)


class TestDispersionSensitivity:
    def test_dispersion_helps_the_optimizer(self):
        sweep = sensitivity.dispersion_sensitivity(
            setup=TINY, std_devs=np.array([0.25, 1.0, 4.0]))
        pf = sweep.get("PF_TECHNIQUE").y
        assert pf[-1] > pf[0]

    def test_pf_at_least_gf(self):
        sweep = sensitivity.dispersion_sensitivity(
            setup=TINY, std_devs=np.array([0.5, 2.0]))
        assert (sweep.get("PF_TECHNIQUE").y
                >= sweep.get("GF_TECHNIQUE").y - 1e-9).all()


class TestScaleSensitivity:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sensitivity.scale_sensitivity(
            n_objects=np.array([200, 800, 3200]))

    def test_optimal_pf_rises_and_flattens(self, sweep):
        """Zipf profiles are not scale-free: bigger catalogs expose
        more exploitable skew, with diminishing increments."""
        optimal = sweep.get("optimal").y
        assert (np.diff(optimal) > 0.0).all()
        increments = np.diff(optimal)
        assert increments[-1] < increments[0]

    def test_heuristic_gap_grows_at_fixed_k(self, sweep):
        """Fixed k over growing N means coarser partitions: the gap
        to optimal widens — scale the partition count with N."""
        gap = sweep.get("optimal").y - sweep.get("heuristic k=100").y
        assert (gap >= -1e-8).all()
        assert gap[-1] > gap[0]


class TestRepresentativeAblation:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sensitivity.representative_ablation(
            setup=TINY_SPREAD, partition_counts=np.array([5, 15, 40]))

    def test_all_statistics_below_best_case(self, sweep):
        best = sweep.get("best_case").y
        for label in ("mean", "median", "interest-weighted"):
            assert (sweep.get(label).y <= best + 1e-8).all()

    def test_all_statistics_improve_with_partitions(self, sweep):
        for label in ("mean", "median", "interest-weighted"):
            y = sweep.get(label).y
            assert y[-1] >= y[0] - 1e-6

    def test_mean_competitive(self, sweep):
        """The paper's choice should not lose badly to alternatives."""
        mean = sweep.get("mean").y
        for label in ("median", "interest-weighted"):
            assert (mean >= sweep.get(label).y - 0.05).all()


class TestRepresentativeStatisticUnit:
    def test_median_statistic_computes_medians(self, rng):
        from tests.conftest import random_catalog
        catalog = random_catalog(rng, 30)
        assignment = partition_catalog(catalog, 3,
                                       PartitioningStrategy.PF)
        problem = build_representatives(catalog, assignment,
                                        statistic="median")
        for partition in range(3):
            members = assignment.labels == partition
            assert problem.mean_change_rates[partition] == \
                pytest.approx(np.median(
                    catalog.change_rates[members]))

    def test_interest_weighted_statistic(self, rng):
        from tests.conftest import random_catalog
        catalog = random_catalog(rng, 20)
        assignment = partition_catalog(catalog, 2,
                                       PartitioningStrategy.P)
        problem = build_representatives(catalog, assignment,
                                        statistic="interest-weighted")
        members = assignment.labels == 0
        p = catalog.access_probabilities[members]
        lam = catalog.change_rates[members]
        assert problem.mean_change_rates[0] == pytest.approx(
            float((p * lam).sum() / p.sum()))
        # p̄ stays the plain mean (preserving total interest).
        assert problem.mean_probabilities[0] == pytest.approx(
            float(p.mean()))

    def test_unknown_statistic_rejected(self, small_catalog):
        assignment = partition_catalog(small_catalog, 2,
                                       PartitioningStrategy.PF)
        with pytest.raises(ValidationError):
            build_representatives(small_catalog, assignment,
                                  statistic="mode")


class TestAdaptiveConvergence:
    def test_converges_between_blind_and_oracle(self):
        sweep = sensitivity.adaptive_convergence(
            setup=TINY, n_periods=8, request_rate=1500.0)
        adaptive = sweep.get("adaptive manager").y
        oracle = sweep.get("oracle").y[0]
        blind = sweep.get("profile-blind").y[0]
        assert (adaptive <= oracle + 1e-9).all()
        assert adaptive[-1] > blind
        assert adaptive[-1] > 0.85 * oracle
        assert sweep.notes["replans"] >= 1
