"""Concrete synchronization schedules (the Fixed-Order policy in time).

The solvers produce per-element sync *frequencies*; a mirror needs
actual poll instants.  Under the Fixed-Order policy every element is
synchronized at evenly spaced instants — element i with frequency fᵢ
(per period of length T) is polled every T/fᵢ time units.  Phases are
staggered deterministically so the poll load is spread across the
period instead of bursting at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ScheduleError
from repro.numerics.sorting import stable_time_argsort

__all__ = ["PhasePolicy", "SyncSchedule"]


class PhasePolicy(str, Enum):
    """How the first sync of each element is offset within its interval."""

    #: All elements fire their first sync at t = 0 (bursty; useful in
    #: tests for predictability).
    ZERO = "zero"
    #: Element i starts at a deterministic fraction of its interval,
    #: spreading load evenly (golden-ratio low-discrepancy offsets).
    STAGGERED = "staggered"
    #: Phases are drawn uniformly at random in [0, interval).
    RANDOM = "random"


_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class SyncSchedule:
    """A Fixed-Order synchronization schedule.

    Attributes:
        frequencies: Syncs per period for each element, ``f ≥ 0``.
        period_length: Length T of one sync period in clock time.
        phases: First-sync offset of each element, in clock time,
            within ``[0, interval)``; meaningless (0) for f = 0.
    """

    frequencies: np.ndarray
    period_length: float
    phases: np.ndarray

    def __post_init__(self) -> None:
        frequencies = np.asarray(self.frequencies, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if frequencies.ndim != 1:
            raise ScheduleError("frequencies must be 1-D")
        if (frequencies < 0.0).any():
            raise ScheduleError("frequencies must be nonnegative")
        if self.period_length <= 0.0:
            raise ScheduleError(
                f"period_length must be > 0, got {self.period_length}")
        if phases.shape != frequencies.shape:
            raise ScheduleError("phases must match frequencies in shape")
        if (phases < 0.0).any():
            raise ScheduleError("phases must be nonnegative")
        frequencies = frequencies.copy()
        phases = phases.copy()
        frequencies.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_frequencies(cls, frequencies: np.ndarray, *,
                         period_length: float = 1.0,
                         phase_policy: PhasePolicy | str =
                         PhasePolicy.STAGGERED,
                         rng: np.random.Generator | None = None,
                         ) -> "SyncSchedule":
        """Build a schedule from per-period frequencies.

        Args:
            frequencies: Syncs per period per element.
            period_length: Clock length of a period.
            phase_policy: How first-sync offsets are chosen.
            rng: Required for :attr:`PhasePolicy.RANDOM`.

        Returns:
            The schedule.

        Raises:
            ScheduleError: For invalid inputs or a missing ``rng``.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        policy = (phase_policy if isinstance(phase_policy, PhasePolicy)
                  else PhasePolicy(str(phase_policy).lower()))
        with np.errstate(divide="ignore"):
            intervals = np.where(frequencies > 0.0,
                                 period_length / np.maximum(frequencies,
                                                            1e-300), 0.0)
        if policy is PhasePolicy.ZERO:
            phases = np.zeros_like(frequencies)
        elif policy is PhasePolicy.STAGGERED:
            n = frequencies.shape[0]
            fractions = (np.arange(n) * _GOLDEN) % 1.0
            phases = fractions * intervals
        else:
            if rng is None:
                raise ScheduleError("random phases require an rng")
            phases = rng.uniform(0.0, 1.0, size=frequencies.shape) * intervals
        return cls(frequencies=frequencies, period_length=period_length,
                   phases=phases)

    @property
    def n_elements(self) -> int:
        """Number of elements covered by the schedule."""
        return int(self.frequencies.shape[0])

    def intervals(self) -> np.ndarray:
        """Clock time between syncs per element (inf for f = 0)."""
        with np.errstate(divide="ignore"):
            return np.where(self.frequencies > 0.0,
                            self.period_length / np.maximum(
                                self.frequencies, 1e-300), np.inf)

    def sync_times(self, element: int, horizon: float) -> np.ndarray:
        """All sync instants of one element in ``[0, horizon)``.

        Args:
            element: Element index.
            horizon: End of the window, > 0.

        Returns:
            Sorted sync times (possibly empty).
        """
        if horizon <= 0.0:
            raise ScheduleError(f"horizon must be > 0, got {horizon}")
        f = float(self.frequencies[element])
        if f <= 0.0:
            return np.empty(0)
        interval = self.period_length / f
        start = float(self.phases[element])
        count = int(np.ceil(max(horizon - start, 0.0) / interval))
        times = start + interval * np.arange(count)
        return times[times < horizon]

    def _expand_events(self, first_k: np.ndarray, counts: np.ndarray,
                       active: np.ndarray, interval: np.ndarray,
                       phase: np.ndarray, start: float, end: float,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Materialize sync instants for per-element k-index ranges.

        Event times are computed as ``phase + interval * k`` — the same
        float operations :meth:`sync_times` performs — so every caller
        produces bit-identical instants for the same (element, k) pair.
        """
        total = int(counts.sum())
        if total == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        rep = np.repeat(np.arange(active.shape[0]), counts)
        block_start = np.cumsum(counts) - counts
        k = (np.arange(total, dtype=np.int64) - block_start[rep]
             + first_k[rep])
        times = phase[rep] + interval[rep] * k
        keep = times < end
        if start > 0.0:
            keep &= times >= start
        times = times[keep]
        elements = active[rep[keep]].astype(np.int64, copy=False)
        order = stable_time_argsort(times)
        return times[order], elements[order]

    def _active_intervals(self) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
        """Indices, true intervals and phases of schedulable elements."""
        finite = np.isfinite(self.intervals())
        active = np.flatnonzero((self.frequencies > 0.0) & finite)
        with np.errstate(over="ignore"):
            interval = self.period_length / self.frequencies[active]
        return active, interval, self.phases[active]

    def events_until(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """All sync events in ``[0, horizon)``, time-ordered.

        Vectorized across elements; output is bit-identical to
        concatenating :meth:`sync_times` per element and stable-sorting
        by time (ties keep element order).

        Args:
            horizon: End of the window, > 0.

        Returns:
            ``(times, elements)`` — parallel arrays sorted by time.
        """
        if horizon <= 0.0:
            raise ScheduleError(f"horizon must be > 0, got {horizon}")
        active, interval, phase = self._active_intervals()
        if active.size == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        counts_f = np.ceil(np.maximum(horizon - phase, 0.0) / interval)
        if not np.isfinite(counts_f).all():
            raise ScheduleError("sync count overflows the horizon window")
        return self._expand_events(
            np.zeros(active.shape[0], dtype=np.int64),
            counts_f.astype(np.int64), active, interval, phase,
            0.0, horizon)

    def events_between(self, start: float, end: float
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Sync events in ``[start, end)`` — a streaming window.

        Lets an executor pull the schedule one slab at a time instead
        of materializing an unbounded horizon.  Only the window's own
        events are generated (plus a one-index guard band per element
        against division rounding at the boundaries), so cost is
        O(events in window), and adjacent windows partition the stream
        exactly: each event's time is computed with the same float
        operations in every window, then assigned by ``start <= t <
        end`` on that shared value.

        Args:
            start: Window start, >= 0.
            end: Window end, > ``start``.

        Returns:
            ``(times, elements)`` sorted by time within the window.
        """
        if start < 0.0:
            raise ScheduleError(f"start must be >= 0, got {start}")
        if end <= start:
            raise ScheduleError(
                f"end must exceed start, got [{start}, {end})")
        active, interval, phase = self._active_intervals()
        if active.size == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        end_count = np.ceil(np.maximum(end - phase, 0.0) / interval) + 1.0
        if start > 0.0:
            first = np.maximum(
                np.floor((start - phase) / interval) - 1.0, 0.0)
        else:
            first = np.zeros(active.shape[0])
        counts_f = np.maximum(end_count - first, 0.0)
        if not np.isfinite(counts_f).all():
            raise ScheduleError("sync count overflows the window")
        return self._expand_events(
            first.astype(np.int64), counts_f.astype(np.int64),
            active, interval, phase, start, end)

    def syncs_per_period(self) -> float:
        """Total sync operations per period, ``Σ fᵢ``."""
        return float(self.frequencies.sum())

    def bandwidth_per_period(self, sizes: np.ndarray) -> float:
        """Total bandwidth per period, ``Σ sᵢ·fᵢ``."""
        sizes = np.asarray(sizes, dtype=float)
        if sizes.shape != self.frequencies.shape:
            raise ScheduleError("sizes must match frequencies in shape")
        return float(sizes @ self.frequencies)
