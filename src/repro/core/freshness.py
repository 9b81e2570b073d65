"""Time-averaged freshness models for synchronization policies.

An element is updated at the source by a Poisson process with change
rate ``λ`` and is synchronized (polled and refreshed) by the mirror at
frequency ``f``.  A *freshness model* gives the long-run fraction of
time the local copy is up to date, ``F̄(λ, f)``, together with its
partial derivative in ``f`` — the marginal freshness per unit of sync
frequency, which drives the KKT water-filling solver.

Two policies are provided:

* :class:`FixedOrderPolicy` — syncs happen at evenly spaced instants
  (the paper's Fixed-Order policy, shown best in Cho & Garcia-Molina):

      F̄(λ, f) = (f/λ)·(1 − e^(−λ/f))

* :class:`PoissonSyncPolicy` — syncs happen at exponentially
  distributed intervals (memoryless polling), an ablation baseline:

      F̄(λ, f) = f / (f + λ)

Both are strictly concave and increasing in ``f``, so the Core Problem
is a convex program for either.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "FreshnessModel",
    "FixedOrderPolicy",
    "PoissonSyncPolicy",
    "fixed_order_freshness",
    "marginal_gain",
    "invert_marginal_gain",
]

#: Below this staleness ratio ``r = λ/f`` the closed forms are replaced
#: by series expansions to avoid catastrophic cancellation.
_SERIES_CUTOFF = 1e-4

#: Below this ``r`` the inversion evaluates ``log1p(r) − r`` by its
#: Taylor series (coefficients of r⁹ … r², Horner order).
_LOG1P_SERIES_CUTOFF = 1e-2
_LOG1P_SERIES = (1.0 / 9.0, -1.0 / 8.0, 1.0 / 7.0, -1.0 / 6.0, 1.0 / 5.0,
                 -1.0 / 4.0, 1.0 / 3.0, -1.0 / 2.0)

#: Halley steps of the marginal inversion.  Three already reach double
#: precision from the initial guesses; the fourth is margin.
_HALLEY_STEPS = 4


def fixed_order_freshness(change_rates: np.ndarray,
                          frequencies: np.ndarray) -> np.ndarray:
    """Fixed-Order time-averaged freshness ``F̄(λ, f)``, vectorized.

    Conventions at the boundary: ``f = 0`` gives freshness 0 for any
    ``λ > 0`` (never refreshed, eventually always stale) and ``λ = 0``
    gives freshness 1 (never changes, always fresh).

    Args:
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        frequencies: Sync frequencies ``f ≥ 0``, in syncs per period
            (same broadcastable shape).

    Returns:
        Element-wise freshness in ``[0, 1]``.
    """
    lam = np.asarray(change_rates, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    lam, f = np.broadcast_arrays(lam, f)
    out = np.empty(lam.shape, dtype=float)

    never_changes = lam == 0.0
    never_synced = (f == 0.0) & ~never_changes
    regular = ~never_changes & ~never_synced
    out[never_changes] = 1.0
    out[never_synced] = 0.0
    if regular.any():
        r = lam[regular] / f[regular]
        # (1 − e^(−r))/r via expm1 for accuracy at small r.
        out[regular] = -np.expm1(-r) / r
    return out if out.ndim else float(out)


def marginal_gain(staleness_ratio: np.ndarray) -> np.ndarray:
    """The Fixed-Order marginal kernel ``g(r) = 1 − (1 + r)·e^(−r)``.

    ``∂F̄/∂f = g(λ/f)/λ``; ``g`` maps ``(0, ∞)`` onto ``(0, 1)`` and is
    strictly increasing, which is what makes the KKT inversion a
    one-dimensional monotone root-find.

    Args:
        staleness_ratio: ``r = λ/f ≥ 0``.

    Returns:
        ``g(r)`` element-wise, computed with a series at small ``r``.
    """
    r = np.asarray(staleness_ratio, dtype=float)
    out = np.empty(r.shape, dtype=float)
    small = r < _SERIES_CUTOFF
    if small.any():
        rs = r[small]
        # g(r) = r²/2 − r³/3 + r⁴/8 − … ; three terms suffice below
        # the cutoff.
        out[small] = rs * rs * (0.5 - rs / 3.0 + rs * rs / 8.0)
    big = ~small
    if big.any():
        rb = r[big]
        out[big] = 1.0 - (1.0 + rb) * np.exp(-rb)
    return out if out.ndim else float(out)


def _log1p_minus_identity(r: np.ndarray) -> np.ndarray:
    """``log1p(r) − r``, with a series where the difference cancels."""
    out = np.log1p(r)
    out -= r
    small = r < _LOG1P_SERIES_CUTOFF
    if small.any():
        rs = r[small]
        # −r²/2 + r³/3 − … + r⁹/9; the first dropped term is below
        # 2·10⁻¹⁷ of the sum under the cutoff.
        series = np.full_like(rs, _LOG1P_SERIES[0])
        for coefficient in _LOG1P_SERIES[1:]:
            series *= rs
            series += coefficient
        series *= rs
        series *= rs
        out[small] = series
    return out


def invert_marginal_gain(targets: np.ndarray) -> np.ndarray:
    """Solve ``g(r) = t`` for ``r``, vectorized.

    ``g(r) = t`` is ``h(r) = log1p(r) − r − log1p(−t) = 0``, which is
    smooth and well scaled at both ends of ``(0, 1)``.  From the
    asymptotic initial guesses a fixed :data:`_HALLEY_STEPS` Halley
    steps (``h′ = −r/(1+r)``, ``h″ = −1/(1+r)²``) reach double
    precision everywhere, so there is no convergence test and no
    per-element branching.

    Args:
        targets: Values ``t`` with ``0 < t < 1`` element-wise.

    Returns:
        The staleness ratios ``r`` with ``g(r) = t``.

    Raises:
        ValidationError: If any target lies outside ``(0, 1)``.
    """
    t = np.asarray(targets, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if ((t <= 0.0) | (t >= 1.0)).any():
        raise ValidationError("marginal targets must lie strictly in (0, 1)")

    # Initial guess: small-t series g ≈ r²/2 ⇒ r ≈ √(2t); large-t
    # asymptotic (1+r)e^(−r) = 1−t ⇒ r ≈ −ln(1−t) + ln(1+r), iterated
    # once from r₀ = −ln(1−t).
    r = np.sqrt(2.0 * t)
    base = -np.log1p(-t)
    large = t >= 0.5
    if large.any():
        b = base[large]
        r[large] = np.maximum(b + np.log1p(b), r[large])

    for _ in range(_HALLEY_STEPS):
        # Halley: r ← r − 2hh′/(2h′² − hh″), which for this h reduces
        # to r + 2rh(1+r)/(2r² + h); the denominator stays ≥ 1.5r².
        h = _log1p_minus_identity(r)
        h += base
        step = h * r
        step *= 1.0 + r
        step *= 2.0
        denominator = r * r
        denominator *= 2.0
        denominator += h
        step /= denominator
        r += step
    return float(r[0]) if scalar else r


class FreshnessModel(ABC):
    """Interface of a synchronization-policy freshness model."""

    @abstractmethod
    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        """Time-averaged freshness ``F̄(λ, f)``, element-wise.

        ``change_rates`` are in changes per period, ``frequencies``
        in syncs per period; the result is dimensionless in [0, 1].
        """

    @abstractmethod
    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        """Marginal freshness ``∂F̄/∂f``, element-wise.

        ``change_rates`` are in changes per period, ``frequencies``
        in syncs per period; the marginal is in periods per sync.
        """

    @abstractmethod
    def invert_marginal(self, change_rates: np.ndarray,
                        marginals: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Invert the marginal, with the inverse's log-slope.

        Returns ``(f, s)``: the frequencies ``f`` with ``∂F̄/∂f = m``
        and ``s = m·∂f/∂m``, the change in ``f`` per unit change of
        ``ln m`` (negative).  A water-filling solver prices element
        ``i`` at ``mᵢ ∝ μ``, so ``Σ cᵢsᵢ`` is ``μ·d(Σcᵢfᵢ)/dμ`` — the
        slope its outer Newton search on ``μ`` needs.

        ``change_rates`` are in changes per period and the returned
        frequencies in syncs per period.  Only defined for ``0 < m <
        ∂F̄/∂f|_{f→0⁺}``; the water-filling solver guarantees this
        precondition.
        """

    def frequency_for_marginal(self, change_rates: np.ndarray,
                               marginals: np.ndarray) -> np.ndarray:
        """Invert the marginal: the ``f`` with ``∂F̄/∂f = m``.

        ``change_rates`` are in changes per period and the returned
        frequencies in syncs per period; see :meth:`invert_marginal`
        for the domain.
        """
        return self.invert_marginal(change_rates, marginals)[0]


class FixedOrderPolicy(FreshnessModel):
    """Evenly spaced synchronization instants (the paper's policy)."""

    name = "fixed-order"

    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        return fixed_order_freshness(change_rates, frequencies)

    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.zeros(lam.shape, dtype=float)
        live = lam > 0.0
        synced = live & (f > 0.0)
        if synced.any():
            r = lam[synced] / f[synced]
            out[synced] = marginal_gain(r) / lam[synced]
        # The f→0⁺ supremum of the marginal is 1/λ.
        unsynced = live & (f == 0.0)
        out[unsynced] = 1.0 / lam[unsynced]
        return out if out.ndim else float(out)

    def invert_marginal(self, change_rates: np.ndarray,
                        marginals: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        lam = np.asarray(change_rates, dtype=float)
        m = np.asarray(marginals, dtype=float)
        lam, m = np.broadcast_arrays(lam, m)
        # Callers guarantee m < 1/λ mathematically, but the product
        # m·λ can round to exactly 1.0 when m sits a rounding error
        # below the supremum; clamp just inside the open interval (the
        # resulting frequency ≈ λ/40 is in the same degenerate band
        # the solver's threshold handling absorbs).
        targets = np.minimum(m * lam, np.nextafter(1.0, 0.0))
        ratios = invert_marginal_gain(targets)
        frequencies = lam / ratios
        # f = λ/r with g(r) = t = mλ, so m·∂f/∂m = t·∂f/∂t =
        # −(λ/r²)·t/g′(r), g′(r) = r·e^(−r); on the root e^r =
        # (1+r)/(1−t), hence −f·t(1+r)/(r²(1−t)) — no exp needed.
        slopes = targets / ratios
        slopes /= ratios
        slopes *= 1.0 + ratios
        slopes /= 1.0 - targets
        slopes *= -frequencies
        return frequencies, slopes


class PoissonSyncPolicy(FreshnessModel):
    """Memoryless (exponential-interval) polling — ablation baseline.

    With Poisson syncs at rate ``f`` against Poisson updates at rate
    ``λ``, the copy is fresh exactly when the most recent event is a
    sync, so ``F̄ = f/(f + λ)``.
    """

    name = "poisson-sync"

    def freshness(self, change_rates: np.ndarray,
                  frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.ones(lam.shape, dtype=float)
        live = lam > 0.0
        out[live] = f[live] / (f[live] + lam[live])
        return out if out.ndim else float(out)

    def derivative(self, change_rates: np.ndarray,
                   frequencies: np.ndarray) -> np.ndarray:
        lam = np.asarray(change_rates, dtype=float)
        f = np.asarray(frequencies, dtype=float)
        lam, f = np.broadcast_arrays(lam, f)
        out = np.zeros(lam.shape, dtype=float)
        live = lam > 0.0
        out[live] = lam[live] / (f[live] + lam[live]) ** 2
        return out if out.ndim else float(out)

    def invert_marginal(self, change_rates: np.ndarray,
                        marginals: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        lam = np.asarray(change_rates, dtype=float)
        m = np.asarray(marginals, dtype=float)
        lam, m = np.broadcast_arrays(lam, m)
        # λ/(f+λ)² = m  ⇒  f = √(λ/m) − λ, so m·∂f/∂m = −½√(λ/m);
        # clamp the rounding band where m ≥ 1/λ would yield an
        # epsilon-negative frequency (its slope is then 0).
        root = np.sqrt(lam / m)
        frequencies = root - lam
        positive = frequencies > 0.0
        return (np.where(positive, frequencies, 0.0),
                np.where(positive, -0.5 * root, 0.0))
