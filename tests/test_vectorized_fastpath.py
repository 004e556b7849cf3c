"""Reference vs. vectorized fast-path equivalence tests.

The contract (DESIGN.md, "Reference vs. vectorized fast path"): for the same
inputs and seed, the two execution modes produce bit-identical samples,
bit-identical reindexing output and identical cycle counts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.accelerator import AutoGNNDevice
from repro.core.config import HardwareConfig
from repro.core.kernels import (
    SCRKernel,
    UPEKernel,
    reindexer_scan_width,
    reindexing_cycle_count,
    reshaping_cycle_count,
)
from repro.graph.convert import coo_to_csc, edge_order
from repro.graph.coo import VID_DTYPE
from repro.graph.dynamic import DynamicGraph, UpdateBatch
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.reindex import (
    factorize_first_occurrence,
    interleave_endpoints,
    reindex_edges,
    reindex_mapping_sizes,
)
from repro.graph.sampling import (
    MODE_REFERENCE,
    MODE_VECTORIZED,
    SampledSubgraph,
    node_wise_sample,
    node_wise_sample_with_stats,
)
from repro.preprocessing.pipeline import PreprocessingConfig, preprocess


@pytest.fixture
def graph():
    return power_law_graph(GraphSpec(num_nodes=400, num_edges=5000, degree_skew=0.6, seed=13))


@pytest.fixture
def csc(graph):
    return coo_to_csc(graph)


@pytest.fixture
def config():
    return HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64)


def assert_samples_equal(a: SampledSubgraph, b: SampledSubgraph):
    assert a.num_layers == b.num_layers
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.src, lb.src)
        assert np.array_equal(la.dst, lb.dst)
    assert np.array_equal(a.sampled_nodes, b.sampled_nodes)
    assert np.array_equal(a.batch_nodes, b.batch_nodes)
    assert a.num_nodes == b.num_nodes


class TestCSCBatchHelpers:
    def test_in_neighbors_batch_matches_per_node(self, csc):
        nodes = np.arange(0, csc.num_nodes, 3)
        flat, offsets = csc.in_neighbors_batch(nodes)
        for i, node in enumerate(nodes.tolist()):
            segment = flat[int(offsets[i]) : int(offsets[i + 1])]
            assert np.array_equal(segment, csc.in_neighbors(node))

    def test_in_degrees_of_matches_in_degree(self, csc):
        nodes = np.arange(csc.num_nodes)
        degs = csc.in_degrees_of(nodes)
        for node in range(csc.num_nodes):
            assert int(degs[node]) == csc.in_degree(node)

    def test_out_of_range_rejected(self, csc):
        with pytest.raises(IndexError):
            csc.in_neighbors_batch(np.array([csc.num_nodes]))
        with pytest.raises(IndexError):
            csc.in_degrees_of(np.array([-1]))


class TestSamplerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_node_wise_bit_identical(self, csc, seed):
        batch = list(range(0, 60, 2))
        ref = node_wise_sample(csc, batch, k=4, num_layers=3, seed=seed, mode=MODE_REFERENCE)
        vec = node_wise_sample(csc, batch, k=4, num_layers=3, seed=seed, mode=MODE_VECTORIZED)
        assert_samples_equal(ref, vec)

    def test_stats_identical(self, csc):
        _, ref = node_wise_sample_with_stats(csc, [0, 1, 2], 3, 2, seed=5, mode=MODE_REFERENCE)
        _, vec = node_wise_sample_with_stats(csc, [0, 1, 2], 3, 2, seed=5, mode=MODE_VECTORIZED)
        assert ref.arrays == vec.arrays
        assert ref.draws == vec.draws
        assert vec.draws > 0

    def test_vectorized_deterministic(self, csc):
        a = node_wise_sample(csc, [0, 1, 5], k=3, num_layers=2, seed=9, mode=MODE_VECTORIZED)
        b = node_wise_sample(csc, [0, 1, 5], k=3, num_layers=2, seed=9, mode=MODE_VECTORIZED)
        assert_samples_equal(a, b)

    def test_vectorized_per_node_cap_unique_membership(self, csc):
        k = 4
        sample = node_wise_sample(csc, list(range(10)), k=k, num_layers=2, seed=2,
                                  mode=MODE_VECTORIZED)
        for layer in sample.layers:
            for dst in np.unique(layer.dst):
                srcs = layer.src[layer.dst == dst]
                assert srcs.shape[0] <= k
                assert len(set(srcs.tolist())) == srcs.shape[0]
                neighbors = set(csc.in_neighbors(int(dst)).tolist())
                assert set(srcs.tolist()).issubset(neighbors)

    def test_empty_batch(self, csc):
        ref = node_wise_sample(csc, [], k=3, num_layers=2, seed=0, mode=MODE_REFERENCE)
        vec = node_wise_sample(csc, [], k=3, num_layers=2, seed=0, mode=MODE_VECTORIZED)
        assert_samples_equal(ref, vec)
        assert vec.num_sampled_nodes == 0

    def test_unknown_mode_rejected(self, csc):
        with pytest.raises(ValueError):
            node_wise_sample(csc, [0], k=2, num_layers=1, mode="bogus")
        # The config is the one place a run picks its path, so a bad mode
        # fails at construction, naming the valid modes.
        with pytest.raises(ValueError, match="'reference', 'vectorized'"):
            PreprocessingConfig(mode="bogus")


class TestReindexEquivalence:
    def test_bit_identical_modes(self, csc):
        sample = node_wise_sample(csc, [0, 1, 2, 3], k=4, num_layers=2, seed=1)
        combined = sample.all_edges()
        ref = reindex_edges(combined.src, combined.dst, mode=MODE_REFERENCE)
        vec = reindex_edges(combined.src, combined.dst, mode=MODE_VECTORIZED)
        assert ref.mapping == vec.mapping
        assert np.array_equal(ref.edges.src, vec.edges.src)
        assert np.array_equal(ref.edges.dst, vec.edges.dst)
        assert np.array_equal(ref.original_vids, vec.original_vids)

    def test_factorize_lut_matches_sort_path(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 50, size=500).astype(VID_DTYPE)
        codes_lut, orig_lut = factorize_first_occurrence(values, num_vids=50)
        codes_gen, orig_gen = factorize_first_occurrence(values)
        assert np.array_equal(codes_lut, codes_gen)
        assert np.array_equal(orig_lut, orig_gen)

    def test_mapping_sizes_closed_form(self):
        rng = np.random.default_rng(6)
        values = rng.integers(0, 30, size=200).astype(VID_DTYPE)
        codes, _ = factorize_first_occurrence(values)
        sizes = reindex_mapping_sizes(codes)
        mapping = {}
        expected = []
        for v in values.tolist():
            expected.append(max(len(mapping), 1))
            if v not in mapping:
                mapping[v] = len(mapping)
        assert sizes.tolist() == expected

    def test_interleave_order(self):
        src = np.array([1, 2], dtype=VID_DTYPE)
        dst = np.array([3, 4], dtype=VID_DTYPE)
        assert interleave_endpoints(src, dst).tolist() == [3, 1, 4, 2]

    def test_empty(self):
        ref = reindex_edges(np.array([], dtype=int), np.array([], dtype=int),
                            mode=MODE_REFERENCE)
        vec = reindex_edges(np.array([], dtype=int), np.array([], dtype=int),
                            mode=MODE_VECTORIZED)
        assert ref.mapping == vec.mapping == {}
        assert vec.num_sampled_nodes == 0


class TestCycleFormulaEquivalence:
    def test_reshaping_vectorized_matches_loop(self, graph, config):
        ordered = edge_order(graph)
        sorted_dst = np.asarray(ordered.dst, dtype=np.int64)
        # Inline re-statement of the original per-segment walk.
        width, slots = config.scr_width, config.num_scrs
        cycles, target = 0, 0
        for seg_index in range(math.ceil(sorted_dst.shape[0] / width)):
            seg = sorted_dst[seg_index * width : (seg_index + 1) * width]
            last_target = min(int(seg[-1]) + 1, graph.num_nodes)
            cycles += math.ceil((last_target - target + 1) / slots)
            target = last_target
        assert reshaping_cycle_count(ordered.dst, graph.num_nodes, config) == cycles

    def test_reindexing_vectorized_matches_loop(self, config):
        sizes = [1, 10, 200, 300, 5000]
        width = reindexer_scan_width(config)
        expected = sum(max(math.ceil(s / width), 1) for s in sizes)
        assert reindexing_cycle_count(sizes, config) == expected
        assert reindexing_cycle_count(np.array(sizes), config) == expected
        assert reindexing_cycle_count([], config) == 0


class TestKernelEquivalence:
    def test_upe_selection_modes_identical(self, csc, config):
        kernel = UPEKernel(config)
        ref, ref_cycles = kernel.unique_random_selection(
            csc, list(range(12)), k=5, num_layers=2, seed=3, mode=MODE_REFERENCE
        )
        vec, vec_cycles = kernel.unique_random_selection(
            csc, list(range(12)), k=5, num_layers=2, seed=3, mode=MODE_VECTORIZED
        )
        assert_samples_equal(ref, vec)
        assert ref_cycles == vec_cycles

    def test_scr_reindexing_modes_identical(self, csc, config):
        sample = node_wise_sample(csc, list(range(8)), k=4, num_layers=2, seed=2)
        kernel = SCRKernel(config)
        ref_result, ref_cycles = kernel.subgraph_reindexing(sample, mode=MODE_REFERENCE)
        vec_result, vec_cycles = kernel.subgraph_reindexing(sample, mode=MODE_VECTORIZED)
        assert ref_result.mapping == vec_result.mapping
        assert np.array_equal(ref_result.edges.src, vec_result.edges.src)
        assert np.array_equal(ref_result.edges.dst, vec_result.edges.dst)
        assert np.array_equal(ref_result.original_vids, vec_result.original_vids)
        assert ref_cycles == vec_cycles


class TestPipelineEquivalence:
    def test_end_to_end_bit_exact(self, graph):
        workload = PreprocessingConfig(k=4, num_layers=2, batch_size=32, seed=6)
        ref = preprocess(graph, replace(workload, mode=MODE_REFERENCE))
        vec = preprocess(graph, workload)
        assert np.array_equal(ref.ordered.src, vec.ordered.src)
        assert np.array_equal(ref.csc.indptr, vec.csc.indptr)
        assert_samples_equal(ref.sample, vec.sample)
        assert ref.reindex.mapping == vec.reindex.mapping
        assert np.array_equal(ref.reindex.edges.src, vec.reindex.edges.src)
        assert np.array_equal(ref.reindex.edges.dst, vec.reindex.edges.dst)
        assert np.array_equal(ref.subgraph_csc.indptr, vec.subgraph_csc.indptr)
        assert np.array_equal(ref.subgraph_csc.indices, vec.subgraph_csc.indices)

    def test_device_cycles_identical(self, graph):
        workload = PreprocessingConfig(k=4, num_layers=2, batch_size=32, seed=6)
        assert workload.mode == MODE_VECTORIZED
        device = AutoGNNDevice()
        ref = device.preprocess(graph, replace(workload, mode=MODE_REFERENCE))
        vec = device.preprocess(graph, workload)
        assert ref.timing.breakdown() == vec.timing.breakdown()
        assert ref.timing.total_cycles == vec.timing.total_cycles
        assert vec.timing.total_cycles > 0

class TestSatelliteFixes:
    def test_all_edges_empty_layers_keeps_num_nodes(self):
        sample = SampledSubgraph(
            batch_nodes=np.empty(0, dtype=VID_DTYPE),
            layers=[],
            sampled_nodes=np.empty(0, dtype=VID_DTYPE),
            num_nodes=37,
        )
        combined = sample.all_edges()
        assert combined.num_edges == 0
        assert combined.num_nodes == 37

    def test_sampler_sets_num_nodes(self, csc):
        sample = node_wise_sample(csc, [0], k=2, num_layers=1, seed=0)
        assert sample.num_nodes == csc.num_nodes

    def test_out_degrees_cached(self, graph):
        first = graph.out_degrees()
        assert graph.out_degrees() is first

    def test_degree_caches_not_inherited(self, graph):
        graph.in_degrees()
        graph.out_degrees()
        derived = graph.with_edges(graph.src[:10], graph.dst[:10])
        assert derived._degree_cache is None
        assert derived._out_degree_cache is None
        appended = graph.add_edges(np.array([0]), np.array([1]))
        assert appended._degree_cache is None
        assert appended._out_degree_cache is None
        assert int(appended.out_degrees()[0]) == int(graph.out_degrees()[0]) + 1

    def test_ordered_layout_not_inherited(self, graph):
        """Only ``DynamicGraph.apply`` seeds an ordered layout: graphs derived
        from a snapshot carry none, and ordering a static graph caches none."""
        dynamic = DynamicGraph(graph=graph)
        for step in range(2):
            snapshot = dynamic.apply(
                UpdateBatch(step=step, src=np.array([0, 3]), dst=np.array([5, 5]))
            )
        assert snapshot._ordered is not None
        assert edge_order(snapshot) is snapshot._ordered
        derived = [
            snapshot.copy(),
            snapshot.with_edges(snapshot.src[:10], snapshot.dst[:10]),
            snapshot.add_edges(np.array([0]), np.array([1])),
            snapshot.subgraph_edges(snapshot.dst % 2 == 0),
        ]
        assert all(g._ordered is None for g in derived)

        static = derived[0]
        first, second = edge_order(static), edge_order(static)
        assert first is not second
        assert static._ordered is None and static._degree_cache is None
        assert first._ordered is None and first._degree_cache is None
        assert np.array_equal(first.src, snapshot._ordered.src)
        assert np.array_equal(first.dst, snapshot._ordered.dst)
        # The base graph was never ordered, so it carries no layout either.
        assert graph._ordered is None
