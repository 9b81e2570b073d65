"""Gilbert–Elliott segmented scan against a sequential chain walk.

``_ge_scan_states`` replaces the per-element walk of the two-state
chain with a Hillis–Steele scan that stops once its shift reaches the
longest per-element run.  The oracle here is the plain walk: sync
``i`` reads its transition draw at pool position ``2·i`` and moves its
element's chain from the state the element's previous sync left.
Run lengths straddle every power of two up to 17 so that stopping one
pass early or late would show.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import registry as obs
from repro.sim.fastpath import _ge_scan_states


def sequential_walk(sync_elements, flip_good, flip_bad, initial_bad):
    """Per-sync post-transition state (tape order) and final chains."""
    bad = initial_bad.copy()
    state_after = np.empty(sync_elements.shape[0], dtype=bool)
    for i, element in enumerate(sync_elements.tolist()):
        if bad[element]:
            bad[element] = not flip_bad[2 * i]
        else:
            bad[element] = flip_good[2 * i]
        state_after[i] = bad[element]
    return state_after, bad


def check_against_walk(sync_elements, n_elements, seed,
                       p_good_to_bad=0.3, p_bad_to_good=0.4):
    rng = np.random.default_rng(seed)
    m = sync_elements.shape[0]
    pool = rng.random(2 * m + 2)
    flip_good = pool < p_good_to_bad
    flip_bad = pool < p_bad_to_good
    initial_bad = rng.random(n_elements) < 0.5
    frozen = initial_bad.copy()
    with obs.telemetry() as registry:
        order, state_sorted, final_bad = _ge_scan_states(
            sync_elements, flip_good, flip_bad, initial_bad)
    want_after, want_final = sequential_walk(
        sync_elements, flip_good, flip_bad, initial_bad)
    assert np.array_equal(initial_bad, frozen)
    assert np.array_equal(order,
                          np.argsort(sync_elements, kind="stable"))
    assert np.array_equal(state_sorted, want_after[order])
    assert np.array_equal(final_bad, want_final)
    longest = int(np.bincount(sync_elements).max())
    passes = registry.histograms["faults.ge_scan.passes"]
    assert passes.count == 1
    assert passes.total == math.ceil(math.log2(longest))


def interleaved(run_lengths, seed):
    """Element ``e`` synced ``run_lengths[e]`` times, in shuffled tape
    order."""
    elements = np.repeat(np.arange(len(run_lengths)), run_lengths)
    return np.random.default_rng(seed).permutation(elements)


@pytest.mark.parametrize("run", [1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_uniform_run_lengths(run):
    check_against_walk(interleaved([run] * 6, run), 8, seed=run)


@pytest.mark.parametrize("run", [1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_one_long_run_among_short(run):
    """The longest run sets the depth; shorter runs finish early."""
    check_against_walk(interleaved([1, 2, run, 3, 1], 100 + run), 6,
                       seed=100 + run)


def test_one_element_holds_every_sync():
    sync_elements = np.full(37, 2, dtype=np.int32)
    check_against_walk(sync_elements, 5, seed=3)


def test_single_sync():
    check_against_walk(np.array([4], dtype=np.int32), 6, seed=4)


@pytest.mark.parametrize("p_good_to_bad,p_bad_to_good",
                         [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
def test_degenerate_flip_probabilities(p_good_to_bad, p_bad_to_good):
    check_against_walk(interleaved([5, 9, 2], 7), 3, seed=7,
                       p_good_to_bad=p_good_to_bad,
                       p_bad_to_good=p_bad_to_good)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=80),
       st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_random_sync_sequences(elements, seed, p_good_to_bad,
                               p_bad_to_good):
    check_against_walk(np.asarray(elements, dtype=np.int32), 10, seed,
                       p_good_to_bad, p_bad_to_good)
