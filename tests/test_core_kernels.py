"""Tests for the UPE/SCR kernels and the shared cycle-count formulas."""

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.core.kernels import (
    SCRKernel,
    UPEKernel,
    key_bits_for_nodes,
    ordering_cycle_count,
    reindexer_scan_width,
    reindexing_cycle_count,
    reindexing_cycle_estimate,
    reshaping_cycle_count,
    reshaping_cycle_estimate,
    selection_cycle_count,
)
from repro.graph.convert import coo_to_csc, edge_order
from repro.graph.coo import VID_DTYPE, COOGraph
from repro.graph.reindex import reindex_edges


@pytest.fixture
def config():
    return HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64)


class TestCycleFormulas:
    def test_key_bits(self):
        assert key_bits_for_nodes(2) == 2
        assert key_bits_for_nodes(1024) == 20
        assert key_bits_for_nodes(1025) == 22

    def test_ordering_scales_with_edges(self, config):
        small = ordering_cycle_count(1000, 100, config)
        large = ordering_cycle_count(100_000, 100, config)
        assert large > small
        assert ordering_cycle_count(0, 100, config) == 0

    def test_ordering_improves_with_more_upes(self):
        few = HardwareConfig(num_upes=2, upe_width=32)
        many = HardwareConfig(num_upes=64, upe_width=32)
        assert ordering_cycle_count(100_000, 1000, many) < ordering_cycle_count(100_000, 1000, few)

    def test_selection_cycles(self, config):
        assert selection_cycle_count(0, 0, config) == 0
        assert selection_cycle_count(80, 8, config) == (80 + 8 * 3 + 7) // 8

    def test_reshaping_count_vs_estimate(self, config, medium_graph):
        ordered = edge_order(medium_graph)
        exact = reshaping_cycle_count(ordered.dst, medium_graph.num_nodes, config)
        estimate = reshaping_cycle_estimate(medium_graph.num_edges, medium_graph.num_nodes, config)
        assert exact > 0
        # The aggregate estimate is within a small factor of the exact walk.
        assert 0.3 <= exact / estimate <= 3.0

    def test_reshaping_empty(self, config):
        assert reshaping_cycle_count(np.array([], dtype=int), 10, config) == 0
        assert reshaping_cycle_estimate(0, 10, config) == 0

    def test_reindexer_scan_width(self, config):
        assert reindexer_scan_width(config) == 128

    def test_reindexing_count(self, config):
        sizes = [1, 10, 200, 300]
        cycles = reindexing_cycle_count(sizes, config)
        assert cycles == 1 + 1 + 2 + 3

    def test_reindexing_estimate(self, config):
        assert reindexing_cycle_estimate(0, 100, config) == 0
        assert reindexing_cycle_estimate(10, 100, config) == 10
        assert reindexing_cycle_estimate(10, 1000, config) == 40


class TestUPEKernel:
    def test_edge_ordering_matches_reference(self, medium_graph, config):
        kernel = UPEKernel(config)
        ordered, cycles = kernel.edge_ordering(medium_graph)
        reference = edge_order(medium_graph)
        assert np.array_equal(ordered.dst, reference.dst)
        assert np.array_equal(np.sort(ordered.src), np.sort(reference.src))
        assert ordered.is_sorted()
        assert cycles == ordering_cycle_count(medium_graph.num_edges, medium_graph.num_nodes, config)

    def test_edge_ordering_detailed_matches_fast(self, small_graph, tiny_hardware):
        fast = UPEKernel(tiny_hardware, detailed=False)
        detailed = UPEKernel(tiny_hardware, detailed=True)
        ordered_fast, cycles_fast = fast.edge_ordering(small_graph)
        ordered_detailed, cycles_detailed = detailed.edge_ordering(small_graph)
        assert np.array_equal(ordered_fast.concatenate_vids(), ordered_detailed.concatenate_vids())
        assert cycles_fast == cycles_detailed

    def test_edge_ordering_empty(self, config):
        from repro.graph.coo import COOGraph

        empty = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=4)
        ordered, cycles = UPEKernel(config).edge_ordering(empty)
        assert ordered.num_edges == 0
        assert cycles == 0

    @pytest.mark.parametrize(
        "num_nodes, num_edges",
        [
            (1, 5),  # one node: every edge is the same self-loop
            (2, 40),
            (3, 40),
            # Around powers of two, where the width of the largest VID (and
            # with it the key-packing shift) changes.
            (63, 500),
            (64, 500),
            (65, 500),
            (1023, 3000),
            (1024, 3000),
            (1025, 3000),
        ],
    )
    def test_edge_ordering_matches_lexsort_oracle(self, config, num_nodes, num_edges):
        """Duplicate edges and self-loops included; ties leave no room for
        an unstable sort to reorder anything."""
        rng = np.random.default_rng(num_nodes * 7919 + num_edges)
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        # Force exact duplicates and self-loops on top of the random ones.
        src[: num_edges // 4] = src[num_edges // 4 : 2 * (num_edges // 4)]
        dst[: num_edges // 4] = dst[num_edges // 4 : 2 * (num_edges // 4)]
        dst[-(num_edges // 5) :] = src[-(num_edges // 5) :]
        graph = COOGraph(src=src, dst=dst, num_nodes=num_nodes)
        order = np.lexsort((src, dst))

        kernel_ordered, _ = UPEKernel(config).edge_ordering(graph)
        reference = edge_order(graph)
        for ordered in (kernel_ordered, reference):
            assert np.array_equal(ordered.src, src[order])
            assert np.array_equal(ordered.dst, dst[order])
            assert ordered.num_nodes == num_nodes

    @pytest.mark.parametrize("num_nodes", [0, 1])
    def test_edge_ordering_empty_and_one_node_agree(self, config, num_nodes):
        none = np.zeros(0, dtype=VID_DTYPE)
        graph = COOGraph(src=none, dst=none, num_nodes=num_nodes)
        ordered, cycles = UPEKernel(config).edge_ordering(graph)
        reference = edge_order(graph)
        assert cycles == 0
        for result in (ordered, reference):
            assert result.num_edges == 0
            assert result.num_nodes == num_nodes
            assert result.src.dtype == VID_DTYPE and result.dst.dtype == VID_DTYPE

    def test_edge_ordering_detailed_matches_oracle_at_pow2(self, tiny_hardware):
        rng = np.random.default_rng(5)
        for num_nodes in (15, 16, 17):
            src = rng.integers(0, num_nodes, size=120)
            dst = rng.integers(0, num_nodes, size=120)
            graph = COOGraph(src=src, dst=dst, num_nodes=num_nodes)
            order = np.lexsort((src, dst))
            ordered, _ = UPEKernel(tiny_hardware, detailed=True).edge_ordering(graph)
            assert np.array_equal(ordered.src, src[order])
            assert np.array_equal(ordered.dst, dst[order])

    def test_selection_valid_edges(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, cycles = kernel.unique_random_selection(csc, [0, 1, 2], k=3, num_layers=2, seed=0)
        assert cycles > 0
        assert sample.num_sampled_edges > 0
        for layer in sample.layers:
            for src, dst in zip(layer.src.tolist(), layer.dst.tolist()):
                assert src in csc.in_neighbors(dst).tolist()

    def test_selection_unique_per_node(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, _ = kernel.unique_random_selection(csc, list(range(5)), k=4, num_layers=1, seed=1)
        layer = sample.layers[-1]
        for dst in np.unique(layer.dst):
            srcs = layer.src[layer.dst == dst]
            assert len(set(srcs.tolist())) == len(srcs)

    def test_selection_detailed_mode(self, small_graph, tiny_hardware):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(tiny_hardware, detailed=True)
        args = (csc, [0, 1, 5], 3, 2)
        sample, cycles = kernel.unique_random_selection(*args, seed=2)
        fast, fast_cycles = UPEKernel(tiny_hardware).unique_random_selection(*args, seed=2)
        # The layers were gathered through the UPE datapath, and match bit for bit.
        assert kernel.upe.cycles_consumed > 0
        assert cycles == fast_cycles > 0
        assert sample.num_layers == fast.num_layers == 2
        for layer, fast_layer in zip(sample.layers, fast.layers):
            assert np.array_equal(layer.src, fast_layer.src)
            assert np.array_equal(layer.dst, fast_layer.dst)
            assert layer.src.dtype == fast_layer.src.dtype
        assert np.array_equal(sample.sampled_nodes, fast.sampled_nodes)


class TestSCRKernel:
    def test_reshaping_matches_reference(self, medium_graph, config):
        ordered = edge_order(medium_graph)
        kernel = SCRKernel(config)
        csc, cycles = kernel.data_reshaping(ordered)
        reference = coo_to_csc(medium_graph)
        assert np.array_equal(csc.indptr, reference.indptr)
        assert np.array_equal(csc.indices, reference.indices)
        assert cycles > 0

    def test_reshaping_detailed_matches_fast(self, small_graph, tiny_hardware):
        ordered = edge_order(small_graph)
        fast_csc, fast_cycles = SCRKernel(tiny_hardware, detailed=False).data_reshaping(ordered)
        det_csc, det_cycles = SCRKernel(tiny_hardware, detailed=True).data_reshaping(ordered)
        assert np.array_equal(fast_csc.indptr, det_csc.indptr)
        assert fast_cycles == det_cycles

    def test_reindexing_matches_reference(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, _ = kernel.unique_random_selection(csc, [0, 1, 2], k=3, num_layers=2, seed=3)
        scr = SCRKernel(config)
        result, cycles = scr.subgraph_reindexing(sample)
        combined = sample.all_edges()
        reference = reindex_edges(combined.src, combined.dst)
        assert result.mapping == reference.mapping
        assert np.array_equal(result.edges.src, reference.edges.src)
        assert cycles >= combined.num_edges  # at least one cycle per endpoint pair

    def test_reindexing_detailed_matches_fast(self, small_graph, tiny_hardware):
        csc = coo_to_csc(small_graph)
        sample, _ = UPEKernel(tiny_hardware).unique_random_selection(
            csc, [0, 1], k=2, num_layers=2, seed=4
        )
        fast_result, fast_cycles = SCRKernel(tiny_hardware, detailed=False).subgraph_reindexing(sample)
        det_result, det_cycles = SCRKernel(tiny_hardware, detailed=True).subgraph_reindexing(sample)
        assert fast_result.mapping == det_result.mapping
        assert np.array_equal(fast_result.edges.src, det_result.edges.src)
        assert fast_cycles == det_cycles
