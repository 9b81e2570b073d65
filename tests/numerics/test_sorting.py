"""The element-id radix argsort must equal numpy's direct stable sort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.numerics.sorting import id_radix_passes, stable_id_argsort

ONE_DIGIT = 1 << 16


def assert_matches_direct(ids: np.ndarray) -> None:
    got = stable_id_argsort(ids)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.argsort(ids, kind="stable"))


def id_lists(low: int, high: int) -> st.SearchStrategy:
    return st.lists(st.integers(low, high), max_size=400)


class TestStableIdArgsort:

    @settings(max_examples=60, deadline=None)
    @given(id_lists(0, ONE_DIGIT - 1))
    def test_ids_below_one_digit(self, ids):
        assert_matches_direct(np.asarray(ids, dtype=np.int32))

    @settings(max_examples=60, deadline=None)
    @given(id_lists(ONE_DIGIT - 24, ONE_DIGIT + 24))
    def test_ids_straddling_one_digit(self, ids):
        """Equal low digits with different high digits: the second
        pass must order them and keep ties stable."""
        assert_matches_direct(np.asarray(ids, dtype=np.int32))

    @settings(max_examples=60, deadline=None)
    @given(id_lists(1 << 24, (1 << 31) - 2))
    def test_sparse_wide_ids(self, ids):
        assert_matches_direct(np.asarray(ids, dtype=np.int32))

    @settings(max_examples=30, deadline=None)
    @given(id_lists(0, (1 << 32) - 1))
    def test_int64_ids_below_two_digits(self, ids):
        """Tiled window ids arrive as int64."""
        assert_matches_direct(np.asarray(ids, dtype=np.int64))

    @pytest.mark.parametrize("value", [0, 7, ONE_DIGIT, 1 << 30])
    def test_all_equal(self, value):
        ids = np.full(1000, value, dtype=np.int32)
        assert np.array_equal(stable_id_argsort(ids), np.arange(1000))

    def test_length_one_and_empty(self):
        assert_matches_direct(np.array([123_456], dtype=np.int32))
        empty = stable_id_argsort(np.empty(0, dtype=np.int32))
        assert empty.dtype == np.int32 and empty.shape == (0,)

    def test_tape_scale(self):
        """Past the small-input sizes numpy might special-case."""
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 1_000_000, 300_000).astype(np.int32)
        assert_matches_direct(ids)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValidationError):
            stable_id_argsort(np.array([3, -1, 2]))
        with pytest.raises(ValidationError):
            stable_id_argsort(np.array([1 << 32], dtype=np.int64))


class TestRadixPasses:

    @pytest.mark.parametrize("max_id, passes", [
        (0, 1), (ONE_DIGIT - 1, 1), (ONE_DIGIT, 2), ((1 << 31) - 1, 2)])
    def test_one_pass_per_16_bit_digit(self, max_id, passes):
        assert id_radix_passes(max_id) == passes
