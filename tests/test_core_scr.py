"""Tests for the SCR datapath: comparators, trees, reshaper and reindexer."""

import numpy as np
import pytest
from conftest import reindex_mapping_sizes
from hypothesis import given, settings, strategies as st

from repro.core.config import HardwareConfig
from repro.core.cost_model import CostModel, WorkloadParams
from repro.core.kernels import reindexing_cycle_count
from repro.core.scr import SCR, AdderTree, ComparatorBank, FilterTree, Reindexer, Reshaper
from repro.graph.convert import build_pointer_array, edge_order
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.reindex import interleave_endpoints, reindex_edges


class TestComparatorBank:
    def test_ge(self):
        bank = ComparatorBank(width=8)
        out = bank.compare_ge(np.array([1, 5, 7, 3]), 4)
        assert out.tolist() == [False, True, True, False]

    def test_eq(self):
        bank = ComparatorBank(width=8)
        out = bank.compare_eq(np.array([1, 5, 7, 5]), 5)
        assert out.tolist() == [False, True, False, True]

    def test_width_enforced(self):
        bank = ComparatorBank(width=2)
        with pytest.raises(ValueError):
            bank.compare_ge(np.array([1, 2, 3]), 0)


class TestTrees:
    def test_adder_tree_counts(self):
        tree = AdderTree(width=16)
        assert tree.reduce(np.array([1, 0, 1, 1])) == 3
        assert tree.depth == 4
        assert tree.output_bits == 5

    def test_filter_tree_hit(self):
        tree = FilterTree(width=8)
        hit, value = tree.reduce(np.array([False, True, False]), np.array([10, 42, 7]))
        assert hit and value == 42

    def test_filter_tree_miss(self):
        tree = FilterTree(width=8)
        hit, value = tree.reduce(np.zeros(3, dtype=bool), np.array([1, 2, 3]))
        assert not hit and value == 0

    def test_filter_tree_lane_bits(self):
        assert FilterTree(width=8, payload_bits=32).lane_bits == 33


class TestSCR:
    def test_count_ge_and_lt(self):
        scr = SCR(width=16)
        seg = np.array([0, 1, 2, 3, 4, 5])
        assert scr.count_ge(seg, 3) == 3
        assert scr.count_lt(seg, 3) == 3
        assert scr.cycles_consumed == 2

    def test_lookup(self):
        scr = SCR(width=16)
        keys = np.array([9, 4, 11])
        payloads = np.array([0, 1, 2])
        hit, value = scr.lookup(keys, payloads, 4)
        assert hit and value == 1
        hit, _ = scr.lookup(keys, payloads, 99)
        assert not hit

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            SCR(width=0)


class TestReshaper:
    def _reference(self, graph):
        ordered = edge_order(graph)
        return ordered, build_pointer_array(ordered.dst, graph.num_nodes)

    @pytest.mark.parametrize("width,slots", [(4, 1), (8, 2), (16, 4), (64, 1)])
    def test_matches_reference(self, width, slots):
        graph = power_law_graph(GraphSpec(num_nodes=40, num_edges=300, degree_skew=0.5, seed=3))
        ordered, expected = self._reference(graph)
        reshaper = Reshaper([SCR(width=width) for _ in range(slots)])
        indptr = reshaper.build_pointer_array(ordered.dst, graph.num_nodes)
        assert np.array_equal(indptr, expected)

    def test_empty_input(self):
        reshaper = Reshaper([SCR(width=8)])
        indptr = reshaper.build_pointer_array(np.array([], dtype=int), 5)
        assert indptr.tolist() == [0, 0, 0, 0, 0, 0]

    def test_requires_slots(self):
        with pytest.raises(ValueError):
            Reshaper([])

    def test_cycle_accounting_positive(self):
        graph = power_law_graph(GraphSpec(num_nodes=30, num_edges=200, seed=4))
        ordered = edge_order(graph)
        reshaper = Reshaper([SCR(width=16)])
        reshaper.build_pointer_array(ordered.dst, graph.num_nodes)
        assert reshaper.stats.cycles > 0
        envelope = CostModel().reshaping_cycles(
            WorkloadParams.from_graph(graph), HardwareConfig(num_scrs=1, scr_width=16)
        )
        assert reshaper.stats.cycles >= envelope * 0.5

    @given(st.integers(1, 30), st.integers(0, 150), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reshaper_property(self, num_nodes, num_edges, seed):
        rng = np.random.default_rng(seed)
        dst = np.sort(rng.integers(0, num_nodes, size=num_edges))
        expected = build_pointer_array(dst, num_nodes)
        reshaper = Reshaper([SCR(width=8), SCR(width=8)])
        assert np.array_equal(reshaper.build_pointer_array(dst, num_nodes), expected)


class TestReindexer:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 50, size=80)
        dst = rng.integers(0, 50, size=80)
        reference = reindex_edges(src, dst)
        reindexer = Reindexer(SCR(width=16))
        new_src, new_dst = reindexer.reindex_edges(src, dst)
        assert np.array_equal(new_src, reference.edges.src)
        assert np.array_equal(new_dst, reference.edges.dst)
        assert reindexer.mapping == reference.mapping

    def test_original_vids(self):
        reindexer = Reindexer(SCR(width=8))
        reindexer.reindex_edges(np.array([7, 9]), np.array([9, 11]))
        original = reindexer.original_vids()
        for vid, new in reindexer.mapping.items():
            assert original[new] == vid

    def test_counter_matches_unique_nodes(self):
        reindexer = Reindexer(SCR(width=4))
        src = np.array([1, 2, 3, 1])
        dst = np.array([2, 3, 1, 3])
        reindexer.reindex_edges(src, dst)
        assert reindexer.counter == 3

    def test_sram_capacity_enforced(self):
        reindexer = Reindexer(SCR(width=4), sram_capacity=2)
        with pytest.raises(MemoryError):
            reindexer.reindex_edges(np.array([1, 2, 3]), np.array([4, 5, 6]))

    def test_reset(self):
        reindexer = Reindexer(SCR(width=4))
        reindexer.reindex_edges(np.array([1]), np.array([2]))
        reindexer.reset()
        assert reindexer.counter == 0
        assert reindexer.mapping == {}
        assert reindexer.stats.cycles == 0

    def test_cycles_accumulate(self):
        reindexer = Reindexer(SCR(width=2))
        reindexer.reindex_edges(np.arange(10), np.arange(10, 20))
        assert reindexer.stats.cycles >= 20

    @pytest.mark.parametrize(
        "width, num_vids",
        [(64, 30), (16, 16), (16, 50), (4, 60)],
        ids=["one-scan", "exact-scan", "several-scans", "many-scans"],
    )
    def test_cycles_match_closed_form(self, width, num_vids):
        # Each lookup scans every resident mapping, hit or miss, so its charge
        # follows the occupancy at the lookup, not where the VID sits.
        rng = np.random.default_rng(num_vids)
        src = rng.integers(0, num_vids, size=120)
        dst = rng.integers(0, num_vids, size=120)
        reindexer = Reindexer(SCR(width=width))
        reindexer.reindex_edges(src, dst)
        reference = reindex_edges(src, dst)
        sizes = reindex_mapping_sizes(interleave_endpoints(reference.edges.src, reference.edges.dst))
        config = HardwareConfig(num_scrs=1, scr_width=width)
        assert reindexer.stats.cycles == reindexing_cycle_count(sizes, config)
