"""Tests for repro.core.freshness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.freshness import (
    FixedOrderPolicy,
    PoissonSyncPolicy,
    fixed_order_freshness,
    invert_marginal_gain,
    marginal_gain,
)
from repro.errors import ValidationError

positive_rates = st.floats(min_value=1e-3, max_value=50.0)
positive_freqs = st.floats(min_value=1e-3, max_value=50.0)


class TestFixedOrderFreshness:
    def test_known_value_at_equal_rate_and_frequency(self):
        # r = 1: F = 1 - e^{-1}.
        value = fixed_order_freshness(np.array([2.0]), np.array([2.0]))
        assert value == pytest.approx(1.0 - math.exp(-1.0))

    def test_zero_frequency_is_stale(self):
        assert fixed_order_freshness(np.array([1.0]),
                                     np.array([0.0])) == 0.0

    def test_zero_change_rate_is_always_fresh(self):
        assert fixed_order_freshness(np.array([0.0]),
                                     np.array([0.0])) == 1.0
        assert fixed_order_freshness(np.array([0.0]),
                                     np.array([3.0])) == 1.0

    def test_fast_sync_approaches_one(self):
        value = fixed_order_freshness(np.array([1.0]),
                                      np.array([1e6]))
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_slow_sync_approaches_zero(self):
        value = fixed_order_freshness(np.array([1e6]),
                                      np.array([1.0]))
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_scalar_inputs_return_scalar(self):
        value = fixed_order_freshness(1.0, 1.0)
        assert isinstance(value, float)

    def test_broadcasting(self):
        values = fixed_order_freshness(np.array([1.0, 2.0, 4.0]), 2.0)
        assert values.shape == (3,)
        assert (np.diff(values) < 0.0).all()

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_bounded_in_unit_interval(self, lam, f):
        value = fixed_order_freshness(np.array([lam]), np.array([f]))
        assert 0.0 < value <= 1.0

    @given(positive_rates, positive_freqs,
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_increasing_in_frequency(self, lam, f, factor):
        lower = fixed_order_freshness(np.array([lam]), np.array([f]))
        higher = fixed_order_freshness(np.array([lam]),
                                       np.array([f * factor]))
        assert higher > lower

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_depends_only_on_ratio(self, lam, f):
        one = fixed_order_freshness(np.array([lam]), np.array([f]))
        scaled = fixed_order_freshness(np.array([3.0 * lam]),
                                       np.array([3.0 * f]))
        assert one == pytest.approx(scaled, rel=1e-12)

    @given(positive_rates, positive_freqs,
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100)
    def test_strictly_concave_in_frequency(self, lam, f, weight):
        other = 3.0 * f + 0.1
        mid = weight * f + (1.0 - weight) * other
        blend = (weight * fixed_order_freshness(np.array([lam]),
                                                np.array([f]))
                 + (1.0 - weight) * fixed_order_freshness(
                     np.array([lam]), np.array([other])))
        assert fixed_order_freshness(np.array([lam]),
                                     np.array([mid])) >= blend - 1e-12


class TestMarginalGain:
    def test_range(self):
        r = np.array([1e-8, 0.01, 1.0, 10.0, 100.0])
        g = marginal_gain(r)
        assert (g > 0.0).all()
        assert (g <= 1.0).all()
        assert (g[:4] < 1.0).all()  # strictly below 1 at moderate r
        assert (np.diff(g) > 0.0).all()

    def test_zero_at_zero(self):
        assert marginal_gain(np.array([0.0])) == 0.0

    def test_series_matches_closed_form_at_cutoff(self):
        # The series branch and the closed form must agree where they
        # meet.
        r = np.array([9e-5, 1.1e-4])
        g = marginal_gain(r)
        exact = 1.0 - (1.0 + r) * np.exp(-r)
        assert np.allclose(g, exact, rtol=1e-8)

    def test_matches_derivative_of_freshness(self):
        # dF/df at (lam, f) equals g(lam/f)/lam; check against a
        # central finite difference.
        lam, f, h = 2.0, 1.5, 1e-6
        numeric = (fixed_order_freshness(np.array([lam]),
                                         np.array([f + h]))
                   - fixed_order_freshness(np.array([lam]),
                                           np.array([f - h]))) / (2 * h)
        analytic = marginal_gain(np.array([lam / f])) / lam
        assert numeric[0] == pytest.approx(analytic[0], rel=1e-5)

    @given(st.floats(min_value=1e-6, max_value=0.999999))
    @settings(max_examples=200)
    def test_inversion_roundtrip(self, target):
        r = invert_marginal_gain(np.array([target]))
        assert marginal_gain(r) == pytest.approx(target, abs=1e-10)

    def test_invert_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([0.0]))
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([1.0]))
        with pytest.raises(ValidationError):
            invert_marginal_gain(np.array([-0.5]))

    def test_invert_scalar(self):
        r = invert_marginal_gain(0.5)
        assert isinstance(r, float)

    def test_invert_vectorized_consistency(self):
        targets = np.array([0.01, 0.2, 0.5, 0.9, 0.999])
        vector = invert_marginal_gain(targets)
        singles = [invert_marginal_gain(np.array([t]))[0]
                   for t in targets]
        assert np.allclose(vector, singles, rtol=1e-10)


def lambertw_ratio(targets: np.ndarray) -> np.ndarray:
    """The closed-form inverse ``r = −1 − W₋₁(−(1−t)/e)`` of ``g``.

    Where the float argument ``−(1−t)/e`` can no longer resolve ``t``
    (it sits on W's branch point ``−1/e``), the same branch is taken
    from its branch-point series in ``s = √(2t)``, accurate there to
    ~10⁻¹¹ relative.
    """
    lambertw = pytest.importorskip("scipy.special").lambertw
    t = np.asarray(targets, dtype=float)
    out = np.empty_like(t)
    closed = t >= _ORACLE_SERIES_BELOW
    out[closed] = (-1.0 - lambertw(-(1.0 - t[closed]) / math.e, -1)).real
    s = np.sqrt(2.0 * t[~closed])
    out[~closed] = s * (1.0 + s * (1.0 / 3.0 + s * (
        11.0 / 72.0 + s * (43.0 / 540.0 + s * 769.0 / 17280.0))))
    return out


_ORACLE_SERIES_BELOW = 1e-4


class TestInversionOracle:
    """``invert_marginal_gain`` against the Lambert-W closed form."""

    @given(st.floats(min_value=-300.0, max_value=-1e-3),
           st.booleans())
    @example(-300.0, False)
    @example(-15.9, True)
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form(self, exponent, near_one):
        target = 10.0 ** exponent
        if near_one:
            target = min(1.0 - target, np.nextafter(1.0, 0.0))
        ratio = invert_marginal_gain(np.array([target]))
        oracle = lambertw_ratio(np.array([target]))
        assert abs(ratio[0] - oracle[0]) <= 1e-7 * oracle[0]

    def test_worst_residual_over_the_whole_range(self):
        small = np.logspace(-300.0, -1e-3, 20_000)
        near_one = 1.0 - np.logspace(-15.9, -1e-3, 20_000)
        targets = np.concatenate([small, near_one,
                                  [np.nextafter(1.0, 0.0), 0.5]])
        ratios = invert_marginal_gain(targets)
        oracle = lambertw_ratio(targets)
        assert np.max(np.abs(ratios - oracle) / oracle) <= 1e-7

    def test_series_meets_the_closed_form_at_the_switch(self):
        lambertw = pytest.importorskip("scipy.special").lambertw
        t = _ORACLE_SERIES_BELOW * (1.0 - 1e-12)
        closed = (-1.0 - lambertw(-(1.0 - t) / math.e, -1)).real
        assert lambertw_ratio(np.array([t]))[0] == pytest.approx(
            closed, rel=1e-9)


class TestFixedOrderPolicy:
    def test_derivative_at_zero_frequency_is_reciprocal_rate(self):
        policy = FixedOrderPolicy()
        d = policy.derivative(np.array([4.0]), np.array([0.0]))
        assert d == pytest.approx(0.25)

    def test_derivative_zero_for_static_element(self):
        policy = FixedOrderPolicy()
        assert policy.derivative(np.array([0.0]), np.array([1.0])) == 0.0

    def test_derivative_decreasing_in_frequency(self):
        policy = FixedOrderPolicy()
        freqs = np.array([0.5, 1.0, 2.0, 4.0])
        d = policy.derivative(np.full(4, 2.0), freqs)
        assert (np.diff(d) < 0.0).all()

    @given(positive_rates, st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=100)
    def test_frequency_for_marginal_roundtrip(self, lam, fraction):
        policy = FixedOrderPolicy()
        # A reachable marginal target: m in (0, 1/lam).
        marginal = fraction / lam
        f = policy.frequency_for_marginal(np.array([lam]),
                                          np.array([marginal]))
        recovered = policy.derivative(np.array([lam]), f)
        assert recovered == pytest.approx(marginal, rel=1e-8)


class TestPoissonSyncPolicy:
    def test_closed_form(self):
        policy = PoissonSyncPolicy()
        value = policy.freshness(np.array([2.0]), np.array([2.0]))
        assert value == pytest.approx(0.5)

    def test_static_element_fresh(self):
        policy = PoissonSyncPolicy()
        assert policy.freshness(np.array([0.0]), np.array([0.0])) == 1.0

    def test_derivative_matches_finite_difference(self):
        policy = PoissonSyncPolicy()
        lam, f, h = 3.0, 1.0, 1e-6
        numeric = (policy.freshness(np.array([lam]), np.array([f + h]))
                   - policy.freshness(np.array([lam]),
                                      np.array([f - h]))) / (2 * h)
        assert numeric[0] == pytest.approx(
            policy.derivative(np.array([lam]), np.array([f]))[0],
            rel=1e-5)

    @given(positive_rates, st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=100)
    def test_frequency_for_marginal_roundtrip(self, lam, fraction):
        policy = PoissonSyncPolicy()
        marginal = fraction / lam
        f = policy.frequency_for_marginal(np.array([lam]),
                                          np.array([marginal]))
        recovered = policy.derivative(np.array([lam]), f)
        assert recovered == pytest.approx(marginal, rel=1e-8)

    @given(positive_rates, positive_freqs)
    @settings(max_examples=100)
    def test_fixed_order_dominates_poisson_sync(self, lam, f):
        # Cho & Garcia-Molina: evenly spaced syncs beat memoryless
        # syncs at the same frequency.
        fixed = FixedOrderPolicy().freshness(np.array([lam]),
                                             np.array([f]))
        poisson = PoissonSyncPolicy().freshness(np.array([lam]),
                                                np.array([f]))
        assert fixed >= poisson - 1e-12
