"""Event representation for the freshening simulator.

The simulator is event-driven: three kinds of events touch an element
— a source-side *update*, a mirror-side *sync*, and a user *access*.
Streams of homogeneous events are generated in bulk (vectorized) and
then merged into one time-ordered tape which the simulation replays.

Tie-breaking at identical timestamps is by event kind: updates apply
before syncs (a sync at the same instant picks up the new version),
and accesses observe last (they see the post-sync state).  This makes
simultaneous-event semantics deterministic.

Memory discipline: a tape is three parallel arrays (structure of
arrays) — float64 times, int32 element ids, int8 kinds — 13 bytes
per event instead of 24, which is what keeps 10⁶-element replay
windows resident.  Element ids are validated to fit int32 (2³¹
elements is far past the catalog sizes the solvers handle); the
window batcher widens ids to int64 itself when it tiles several
periods into one virtual element space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

from repro.errors import ValidationError

__all__ = ["EventKind", "EventStream", "merge_sorted_blocks",
           "merge_streams"]


class EventKind(IntEnum):
    """Event kinds, ordered by same-instant application priority."""

    UPDATE = 0
    SYNC = 1
    ACCESS = 2


@dataclass(frozen=True)
class EventStream:
    """A homogeneous, time-sorted stream of events.

    Attributes:
        kind: The event kind shared by the whole stream.
        times: Event instants, nondecreasing.
        elements: Element index per event.
    """

    kind: EventKind
    times: np.ndarray
    elements: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        raw_elements = np.asarray(self.elements)
        if (raw_elements.size
                and raw_elements.dtype.kind in "iu"
                and int(raw_elements.max())
                >= np.iinfo(np.int32).max):
            raise ValidationError(
                "element ids must fit int32 (SoA tape layout)")
        elements = raw_elements.astype(np.int32)
        if times.ndim != 1 or elements.ndim != 1:
            raise ValidationError("times and elements must be 1-D")
        if times.shape != elements.shape:
            raise ValidationError(
                f"times {times.shape} and elements {elements.shape} must "
                "have equal length")
        if times.size and (np.diff(times) < 0.0).any():
            raise ValidationError("event times must be nondecreasing")
        times = times.copy()
        # astype above already produced a private copy of elements.
        times.flags.writeable = False
        elements.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return int(self.times.shape[0])


def merge_streams(streams: Iterable[EventStream],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge event streams into one time-ordered tape.

    Args:
        streams: Any number of homogeneous streams.

    Returns:
        ``(times, elements, kinds)`` sorted by time with kind priority
        breaking ties (updates < syncs < accesses).
    """
    collected = list(streams)
    if not collected:
        return (np.empty(0), np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int8))
    times = np.concatenate([stream.times for stream in collected])
    elements = np.concatenate([stream.elements for stream in collected])
    kinds = np.concatenate([
        np.full(len(stream), int(stream.kind), dtype=np.int8)
        for stream in collected
    ])
    order = np.lexsort((kinds, times))
    return times[order], elements[order], kinds[order]


def merge_sorted_blocks(update_times: np.ndarray,
                        update_elements: np.ndarray,
                        sync_times: np.ndarray,
                        sync_elements: np.ndarray,
                        access_times: np.ndarray,
                        access_elements: np.ndarray, *,
                        n_elements: int,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge three time-sorted event blocks into one SoA tape.

    The blocks are laid out in kind order [updates, syncs, accesses]
    and ordered by one stable argsort of the times.  Numpy's stable
    sort of float64 keys is timsort, which detects the three sorted
    runs and merges them in O(n); at equal times stability keeps
    block order, which is exactly the update < sync < access
    same-instant priority.  Within a block, stability keeps the
    input order, so the output is bit-identical to
    :func:`merge_streams`'s lexsort over the same streams.

    Callers holding raw (unsorted) draws sort each stream first with
    :func:`~repro.numerics.sorting.stable_time_argsort`, the same
    per-stream stable sort the :func:`merge_streams` route applies.

    Args:
        update_times: Sorted update instants.
        update_elements: Update element ids, parallel to the times.
        sync_times: Sorted sync instants.
        sync_elements: Sync element ids.
        access_times: Sorted access instants.
        access_elements: Access element ids.
        n_elements: Catalog size, for the int32 id-width check.

    Returns:
        ``(times, elements, kinds)`` — float64 / int32 / int8 arrays
        sorted by time with kind priority breaking ties.
    """
    if n_elements >= np.iinfo(np.int32).max:
        raise ValidationError(
            "element ids must fit int32 (SoA tape layout)")
    # Per-call temporaries, not arena buffers: held in an arena they
    # would stay resident through the slab's replay, which sets the
    # streaming peak.
    times = np.concatenate((update_times, sync_times, access_times),
                           dtype=np.float64)
    elements = np.concatenate(
        (update_elements, sync_elements, access_elements),
        dtype=np.int32, casting="unsafe")
    kinds = np.repeat(np.array(list(EventKind), dtype=np.int8),
                      (update_times.shape[0], sync_times.shape[0],
                       access_times.shape[0]))
    order = np.argsort(times, kind="stable")
    return times[order], elements[order], kinds[order]
