"""Tests for repro.core.solver — the exact Core-Problem solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshness import (
    FixedOrderPolicy,
    FreshnessModel,
    PoissonSyncPolicy,
    marginal_gain,
)
from repro.core.solver import (
    kkt_residual,
    solve_core_problem,
    solve_weighted_problem,
)
from repro.errors import InfeasibleProblemError, ValidationError
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog
from repro.workloads.presets import TOY_BANDWIDTH, toy_example_catalog

from tests.conftest import random_catalog


class TestTable1Reproduction:
    """The paper's Table 1, digit for digit (to its 2-decimal print)."""

    def test_uniform_profile_p1(self):
        solution = solve_core_problem(toy_example_catalog("P1"),
                                      TOY_BANDWIDTH)
        assert np.round(solution.frequencies, 2).tolist() == [
            1.15, 1.36, 1.35, 1.14, 0.00]

    def test_hottest_change_most_p2(self):
        solution = solve_core_problem(toy_example_catalog("P2"),
                                      TOY_BANDWIDTH)
        assert np.round(solution.frequencies, 2).tolist() == [
            0.33, 0.67, 1.00, 1.33, 1.67]

    def test_hottest_change_least_p3(self):
        solution = solve_core_problem(toy_example_catalog("P3"),
                                      TOY_BANDWIDTH)
        # Paper prints 1.68 1.83 1.49 0.00 0.00; first entry rounds to
        # 1.69 at our tighter convergence — match to the paper's
        # precision.
        assert solution.frequencies == pytest.approx(
            [1.685, 1.83, 1.49, 0.0, 0.0], abs=0.01)

    def test_p2_gives_volatile_element_the_most_bandwidth(self):
        solution = solve_core_problem(toy_example_catalog("P2"),
                                      TOY_BANDWIDTH)
        assert solution.frequencies.argmax() == 4

    def test_budget_exactly_spent(self):
        for profile in ("P1", "P2", "P3"):
            solution = solve_core_problem(toy_example_catalog(profile),
                                          TOY_BANDWIDTH)
            assert solution.bandwidth == pytest.approx(TOY_BANDWIDTH,
                                                       rel=1e-9)


class TestSolverStructure:
    def test_zero_weight_element_gets_nothing(self):
        solution = solve_weighted_problem(
            np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] == 0.0
        assert solution.frequencies[1] == pytest.approx(2.0)

    def test_static_element_gets_nothing(self):
        solution = solve_weighted_problem(
            np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] == 0.0

    def test_all_static_catalog_returns_zero_schedule(self):
        catalog = Catalog(access_probabilities=np.array([0.5, 0.5]),
                          change_rates=np.zeros(2))
        solution = solve_core_problem(catalog, 5.0)
        assert (solution.frequencies == 0.0).all()
        assert solution.objective == pytest.approx(1.0)  # always fresh
        assert solution.bandwidth == 0.0

    def test_identical_elements_get_identical_frequencies(self):
        solution = solve_weighted_problem(
            np.full(4, 0.25), np.full(4, 2.0), np.ones(4), 8.0)
        assert np.allclose(solution.frequencies,
                           solution.frequencies[0])

    def test_higher_interest_gets_more_bandwidth_at_equal_rate(self):
        solution = solve_weighted_problem(
            np.array([0.7, 0.3]), np.array([2.0, 2.0]), np.ones(2), 2.0)
        assert solution.frequencies[0] > solution.frequencies[1]

    def test_objective_monotone_in_bandwidth(self, small_catalog):
        low = solve_core_problem(small_catalog, 1.0)
        high = solve_core_problem(small_catalog, 4.0)
        assert high.objective > low.objective

    def test_equation6_locus(self, small_catalog):
        """Paper Equation 6: active elements share one marginal value."""
        solution = solve_core_problem(small_catalog, 3.0)
        residual = kkt_residual(solution,
                                small_catalog.access_probabilities,
                                small_catalog.change_rates,
                                small_catalog.sizes)
        assert residual < 1e-6

    def test_rejects_nonpositive_bandwidth(self, small_catalog):
        with pytest.raises(InfeasibleProblemError):
            solve_core_problem(small_catalog, 0.0)
        with pytest.raises(InfeasibleProblemError):
            solve_core_problem(small_catalog, -1.0)

    def test_rejects_malformed_inputs(self):
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([1.0, 2.0]),
                                   np.ones(2), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([-1.0]), np.array([1.0]),
                                   np.ones(1), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([-1.0]),
                                   np.ones(1), 1.0)
        with pytest.raises(ValidationError):
            solve_weighted_problem(np.array([1.0]), np.array([1.0]),
                                   np.zeros(1), 1.0)

    def test_solution_scale_invariant_in_weights(self, small_catalog):
        p = small_catalog.access_probabilities
        lam = small_catalog.change_rates
        one = solve_weighted_problem(p, lam, np.ones(5), 3.0)
        scaled = solve_weighted_problem(10.0 * p, lam, np.ones(5), 3.0)
        assert np.allclose(one.frequencies, scaled.frequencies,
                           atol=1e-8)


class TestSolverProperties:
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.5, max_value=200.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kkt_residual_small_on_random_catalogs(self, n, bandwidth,
                                                   seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n)
        solution = solve_core_problem(catalog, bandwidth)
        assert solution.bandwidth == pytest.approx(bandwidth, rel=1e-6)
        assert (solution.frequencies >= 0.0).all()
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes)
        scale = (catalog.access_probabilities
                 / catalog.change_rates).max()
        assert residual < 1e-5 * scale + 1e-9

    @given(st.integers(min_value=2, max_value=30),
           st.floats(min_value=1.0, max_value=50.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sized_problem_kkt(self, n, bandwidth, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n, sized=True)
        solution = solve_core_problem(catalog, bandwidth)
        assert float(catalog.sizes @ solution.frequencies) == \
            pytest.approx(bandwidth, rel=1e-6)
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes)
        scale = (catalog.access_probabilities
                 / (catalog.change_rates * catalog.sizes)).max()
        assert residual < 1e-5 * scale + 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_optimal_beats_uniform_allocation(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 20)
        bandwidth = 10.0
        solution = solve_core_problem(catalog, bandwidth)
        from repro.core.metrics import perceived_freshness
        uniform = np.full(20, bandwidth / 20.0)
        assert solution.objective >= perceived_freshness(
            catalog, uniform) - 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_poisson_policy_solutions_feasible_and_stationary(self, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 15)
        model = PoissonSyncPolicy()
        solution = solve_core_problem(catalog, 7.5, model=model)
        assert solution.bandwidth == pytest.approx(7.5, rel=1e-6)
        residual = kkt_residual(solution, catalog.access_probabilities,
                                catalog.change_rates, catalog.sizes,
                                model=model)
        assert residual < 1e-6


def reference_invert_marginal_gain(targets: np.ndarray) -> np.ndarray:
    """The solver's previous inversion of ``g(r) = t``: safeguarded
    Newton inside a maintained bisection bracket, iterated here to a
    relative tolerance so it can serve as a reference."""
    t = np.asarray(targets, dtype=float)
    guess_small = np.sqrt(2.0 * t)
    with np.errstate(divide="ignore"):
        base = -np.log1p(-t)
    guess_large = base + np.log1p(np.maximum(base, 0.0))
    r = np.where(t < 0.5, guess_small, np.maximum(guess_large, guess_small))
    lo = np.zeros_like(t)
    hi = np.maximum(2.0 * r, 1.0)
    for _ in range(200):
        too_low = marginal_gain(hi) < t
        if not too_low.any():
            break
        hi[too_low] *= 2.0
    r = np.clip(r, lo + 1e-300, hi)
    for _ in range(100):
        residual = marginal_gain(r) - t
        if (np.abs(residual) <= 1e-15 * t).all():
            break
        above = residual > 0.0
        hi = np.where(above, r, hi)
        lo = np.where(above, lo, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = r - residual / (r * np.exp(-r))
        inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
        r = np.where(inside, newton, 0.5 * (lo + hi))
    return r


def reference_solve(weights: np.ndarray, rates: np.ndarray,
                    costs: np.ndarray, bandwidth: float,
                    model: FreshnessModel) -> tuple[np.ndarray, float]:
    """Plain geometric bisection on μ over the reference inversion,
    run until no float is left inside the bracket; returns the
    budget-snapped frequencies and the objective."""
    live = (weights > 0.0) & (rates > 0.0)
    w, lam, c = weights[live], rates[live], costs[live]
    ceilings = w * model.derivative(lam, np.zeros_like(lam)) / c

    def allocate(mu: float) -> np.ndarray:
        freqs = np.zeros_like(w)
        on = ceilings > mu
        targets = mu * c[on] / w[on]
        if isinstance(model, FixedOrderPolicy):
            t = np.minimum(targets * lam[on], np.nextafter(1.0, 0.0))
            freqs[on] = lam[on] / reference_invert_marginal_gain(t)
        else:
            freqs[on] = model.frequency_for_marginal(lam[on], targets)
        return freqs

    lo, hi = float(ceilings.max()) * 2.0 ** -200, float(ceilings.max())
    while True:
        mid = float(np.sqrt(lo * hi))
        if not lo < mid < hi:
            break
        if float(c @ allocate(mid)) > bandwidth:
            lo = mid
        else:
            hi = mid
    freqs = allocate(lo)
    if float(c @ freqs) > bandwidth * (1.0 + 1e-9):
        # The cost jumps between two adjacent floats: interpolate the
        # elements that jump (marginal ≈ μ for each) onto the budget.
        upper = allocate(hi)
        jump = np.where(np.abs(freqs - upper) > 1e-9 * freqs,
                        freqs - upper, 0.0)
        freqs = upper + jump * ((bandwidth - float(c @ upper))
                                / float(c @ jump))
    freqs *= bandwidth / float(c @ freqs)
    frequencies = np.zeros_like(weights)
    frequencies[live] = freqs
    return frequencies, float(weights @ model.freshness(rates,
                                                        frequencies))


class TestSolverParity:
    """Objective parity with bisection over the previous inversion."""

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.02, max_value=3.0),
           st.floats(min_value=0.0, max_value=0.3),
           st.booleans(),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_objective_and_stationarity(self, n, skew, size_spread,
                                        bandwidth_ratio, dead_fraction,
                                        poisson, seed):
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, n + 1) ** skew  # Zipf profile
        rng.shuffle(weights)
        rates = rng.lognormal(0.0, 1.0, size=n)
        costs = rng.lognormal(0.0, size_spread, size=n)
        # Some elements never change, some are never read.
        weights[rng.random(n) < dead_fraction] = 0.0
        rates[rng.random(n) < dead_fraction] = 0.0
        if not ((weights > 0.0) & (rates > 0.0)).any():
            weights[0], rates[0] = 1.0, 1.0
        weights /= weights.sum()
        bandwidth = bandwidth_ratio * float(rates.sum())
        model = PoissonSyncPolicy() if poisson else FixedOrderPolicy()
        solution = solve_weighted_problem(weights, rates, costs,
                                          bandwidth, model=model)
        frequencies, objective = reference_solve(weights, rates, costs,
                                                 bandwidth, model)
        assert solution.objective == pytest.approx(objective, rel=1e-12)
        assert (solution.frequencies[(weights == 0.0) | (rates == 0.0)]
                == 0.0).all()
        residual = kkt_residual(solution, weights, rates, costs,
                                model=model)
        assert residual <= 1e-6 * solution.multiplier

    def test_tie_on_the_ceiling_resolves_the_degeneracy(self):
        """Ten tied elements whose activation jump straddles the
        budget: it falls inside the jump, so they absorb the leftover
        exactly, and stationarity still holds."""
        weights = np.array([1.0] + [0.5] * 10)
        rates = np.ones(11)
        costs = np.ones(11)
        with obs.telemetry() as registry:
            solution = solve_weighted_problem(weights, rates, costs, 0.7)
        assert registry.counters["solver.threshold_degeneracies"] == 1.0
        assert float(costs @ solution.frequencies) == pytest.approx(
            0.7, rel=1e-15)
        assert np.allclose(solution.frequencies[1:],
                           solution.frequencies[1])
        assert solution.multiplier == pytest.approx(0.5, rel=1e-12)
        residual = kkt_residual(solution, weights, rates, costs)
        assert residual <= 1e-6 * solution.multiplier
