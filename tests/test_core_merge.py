"""Tests for Algorithm 1: UPE-based merge sorting."""

import numpy as np
from conftest import loop_merge_rounds
from hypothesis import given, seed, settings, strategies as st

from repro.core.merge import merge_rounds, upe_merge, upe_merge_sort
from repro.core.upe import UPE


class TestMergeRounds:
    def test_values(self):
        assert merge_rounds(0) == 0
        assert merge_rounds(1) == 0
        assert merge_rounds(2) == 1
        assert merge_rounds(3) == 2
        assert merge_rounds(8) == 3
        assert merge_rounds(9) == 4

    def test_scalar_count_is_a_python_int(self):
        assert type(merge_rounds(5)) is int
        assert type(merge_rounds(np.int64(5))) is int

    def test_equals_the_halving_loop(self):
        counts = np.arange(1 << 16, dtype=np.int64)
        expected = [loop_merge_rounds(n) for n in counts.tolist()]
        assert merge_rounds(counts).tolist() == expected
        assert [merge_rounds(n) for n in range(1 << 12)] == expected[: 1 << 12]

    @seed(7)
    @given(st.integers(0, 2**52 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_halving_loop_on_random_counts(self, num_chunks):
        assert merge_rounds(num_chunks) == loop_merge_rounds(num_chunks)
        assert merge_rounds(np.array([num_chunks])).tolist() == [loop_merge_rounds(num_chunks)]


class TestUPEMerge:
    def test_merges_two_sorted_arrays(self):
        upe = UPE(width=8)
        a = np.array([1, 4, 7, 10, 13])
        b = np.array([2, 3, 8, 9, 20, 21])
        merged, cycles = upe_merge(upe, a, b, key_bits=8)
        assert merged.tolist() == sorted(a.tolist() + b.tolist())
        assert cycles > 0

    def test_empty_inputs(self):
        upe = UPE(width=8)
        a = np.array([1, 2, 3])
        merged, cycles = upe_merge(upe, a, np.array([], dtype=int), key_bits=8)
        assert merged.tolist() == [1, 2, 3]
        assert cycles == 0
        merged, _ = upe_merge(upe, np.array([], dtype=int), a, key_bits=8)
        assert merged.tolist() == [1, 2, 3]

    def test_skewed_lengths(self):
        upe = UPE(width=4)
        a = np.array([100])
        b = np.arange(20)
        merged, _ = upe_merge(upe, a, b, key_bits=8)
        assert merged.tolist() == sorted(a.tolist() + b.tolist())

    def test_duplicates(self):
        upe = UPE(width=4)
        a = np.array([1, 1, 1, 5, 5])
        b = np.array([1, 5, 5, 9])
        merged, _ = upe_merge(upe, a, b, key_bits=8)
        assert merged.tolist() == sorted(a.tolist() + b.tolist())

    @given(
        st.lists(st.integers(0, 1000), min_size=0, max_size=60),
        st.lists(st.integers(0, 1000), min_size=0, max_size=60),
        st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_property(self, a, b, width):
        upe = UPE(width=width)
        merged, _ = upe_merge(upe, np.array(sorted(a)), np.array(sorted(b)), key_bits=10)
        assert merged.tolist() == sorted(a + b)


class TestMergeSort:
    def test_merges_many_chunks(self):
        upe = UPE(width=8)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 500, size=100)
        chunks = [np.sort(data[i : i + 8]) for i in range(0, 100, 8)]
        merged, cycles = upe_merge_sort(upe, chunks, key_bits=10)
        assert merged.tolist() == sorted(data.tolist())
        assert cycles > 0

    def test_single_chunk(self):
        upe = UPE(width=8)
        chunk = np.array([1, 2, 3])
        merged, cycles = upe_merge_sort(upe, [chunk], key_bits=8)
        assert merged.tolist() == [1, 2, 3]
        assert cycles == 0

    def test_no_chunks(self):
        upe = UPE(width=8)
        merged, cycles = upe_merge_sort(upe, [], key_bits=8)
        assert merged.size == 0
        assert cycles == 0
