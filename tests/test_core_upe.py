"""Tests for the UPE datapath: prefix sum, relocation, set-partition, radix sort."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.upe import (
    CYCLES_PER_PARTITION_PASS,
    PrefixSumLogic,
    RelocationLogic,
    UPE,
)


class TestPrefixSum:
    def test_known_example(self):
        logic = PrefixSumLogic(8)
        result = logic.scan(np.array([1, 0, 1, 1, 0, 0, 1, 0]))
        assert result.tolist() == [0, 1, 1, 2, 3, 3, 3, 4]

    def test_all_true(self):
        logic = PrefixSumLogic(4)
        assert logic.scan(np.array([1, 1, 1, 1])).tolist() == [0, 1, 2, 3]

    def test_all_false(self):
        logic = PrefixSumLogic(4)
        assert logic.scan(np.array([0, 0, 0, 0])).tolist() == [0, 0, 0, 0]

    def test_width_validation(self):
        with pytest.raises(ValueError):
            PrefixSumLogic(0)
        with pytest.raises(ValueError):
            PrefixSumLogic(6)

    def test_input_too_wide(self):
        logic = PrefixSumLogic(4)
        with pytest.raises(ValueError):
            logic.scan(np.ones(5, dtype=int))

    def test_structure(self):
        logic = PrefixSumLogic(64)
        assert logic.num_layers == 6
        assert logic.adder_bits == 7

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    def test_matches_numpy_cumsum(self, bits):
        logic = PrefixSumLogic(64)
        condition = np.array(bits, dtype=int)
        expected = np.cumsum(condition) - condition
        assert np.array_equal(logic.scan(condition), expected)


class TestRelocation:
    def test_compacts_selected(self):
        logic = RelocationLogic(8)
        values = np.array([10, 11, 12, 13, 14, 15, 16, 17])
        condition = np.array([0, 1, 0, 1, 1, 0, 0, 1], dtype=bool)
        displacement = PrefixSumLogic(8).scan(condition.astype(int))
        out = logic.relocate(values, condition, displacement)
        assert out[:4].tolist() == [11, 13, 14, 17]

    def test_rejects_rightward_moves(self):
        logic = RelocationLogic(4)
        with pytest.raises(ValueError):
            logic.relocate(
                np.array([1, 2, 3, 4]),
                np.array([True, True, True, True]),
                np.array([1, 2, 3, 4]),
            )

    def test_structure(self):
        logic = RelocationLogic(32)
        assert logic.num_layers == 5

    @given(st.lists(st.booleans(), min_size=1, max_size=32), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_boolean_indexing(self, bits, seed):
        rng = np.random.default_rng(seed)
        condition = np.array(bits, dtype=bool)
        values = rng.integers(1, 1000, size=len(bits))
        displacement = PrefixSumLogic(32).scan(condition.astype(int))
        out = RelocationLogic(32).relocate(values, condition, displacement)
        expected = values[condition]
        assert np.array_equal(out[: expected.size], expected)


class TestSetPartition:
    def test_partition_preserves_order(self):
        upe = UPE(width=16)
        values = np.arange(100, 116)
        condition = values % 3 == 0
        result = upe.set_partition(values, condition)
        assert result.selected.tolist() == values[condition].tolist()
        assert result.rejected.tolist() == values[~condition].tolist()

    def test_cycles_charged(self):
        upe = UPE(width=8)
        upe.set_partition(np.arange(8), np.zeros(8, dtype=bool))
        assert upe.cycles_consumed == CYCLES_PER_PARTITION_PASS
        upe.reset_cycles()
        assert upe.cycles_consumed == 0

    def test_matches_boolean_masking(self):
        values = np.array([5, 3, 9, 1, 7, 2, 8, 6])
        condition = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
        result = UPE(width=8).set_partition(values, condition)
        assert np.array_equal(result.selected, values[condition])
        assert np.array_equal(result.rejected, values[~condition])

    def test_length_mismatch_rejected(self):
        upe = UPE(width=8)
        with pytest.raises(ValueError):
            upe.set_partition(np.arange(4), np.zeros(3, dtype=bool))

    def test_chunk_too_wide_rejected(self):
        upe = UPE(width=4)
        with pytest.raises(ValueError):
            upe.set_partition(np.arange(8), np.zeros(8, dtype=bool))

    def test_extract_by_bitmap(self):
        upe = UPE(width=8)
        values = np.arange(8) * 10
        bitmap = np.array([0, 1, 1, 0, 0, 0, 1, 0], dtype=bool)
        result = upe.extract_by_bitmap(values, bitmap)
        assert result.selected.tolist() == [10, 20, 60]


class TestRadixSort:
    def test_sorts_chunk(self):
        upe = UPE(width=32)
        keys = np.array([9, 3, 27, 1, 14, 3, 0, 255, 128])
        out, cycles = upe.radix_sort_chunk(keys, key_bits=8)
        assert out.tolist() == sorted(keys.tolist())
        assert cycles == CYCLES_PER_PARTITION_PASS  # one 8-bit digit pass

    def test_pass_count(self):
        upe = UPE(width=64, radix_bits=8)
        assert upe.radix_sort_passes(24) == 3
        assert upe.radix_sort_passes(1) == 1

    def test_matches_stable_sort(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 1 << 16, size=48)
        out, _ = UPE(width=64).radix_sort_chunk(keys, key_bits=16)
        assert np.array_equal(out, np.sort(keys, kind="stable"))

    @given(st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_radix_sort_property(self, values):
        upe = UPE(width=64)
        out, _ = upe.radix_sort_chunk(np.array(values), key_bits=20)
        assert out.tolist() == sorted(values)
