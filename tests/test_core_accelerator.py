"""End-to-end tests of the AutoGNN device simulator."""

import numpy as np
import pytest
from conftest import validate_conversion

from repro.core.accelerator import AutoGNNDevice
from repro.core.config import HardwareConfig
from repro.core.kernels import reindexer_scan_width
from repro.graph.convert import coo_to_csc
from repro.graph.generators import GraphSpec, power_law_graph
from repro.preprocessing.pipeline import PreprocessingConfig


def _edge_lists(result):
    """Every COO edge list of a preprocessing result, sample layers included."""
    return [result.ordered, *result.sample.layers, result.reindex.edges]


@pytest.fixture
def device():
    return AutoGNNDevice(HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64))


class TestConvert:
    def test_conversion_correct(self, device, medium_graph):
        ordered, csc, ordering_cycles, reshaping_cycles = device.convert(medium_graph)
        assert validate_conversion(medium_graph, csc)
        assert ordered.is_sorted()
        assert ordering_cycles > 0
        assert reshaping_cycles > 0


class TestPreprocess:
    def test_end_to_end_produces_consistent_subgraph(self, device, medium_graph):
        out = device.preprocess(medium_graph, PreprocessingConfig(batch_size=16, k=3, num_layers=2))
        result = out.result
        # Full-graph CSC matches the reference conversion.
        reference = coo_to_csc(medium_graph)
        assert np.array_equal(result.csc.indptr, reference.indptr)
        # The subgraph CSC is the conversion of the reindexed edges.
        rebuilt = coo_to_csc(result.reindex.edges)
        assert np.array_equal(result.subgraph_csc.indptr, rebuilt.indptr)
        # Sampled edges exist in the original graph (after mapping back).
        inverse = result.reindex.original_vids
        for src, dst in zip(result.reindex.edges.src.tolist(), result.reindex.edges.dst.tolist()):
            orig_src, orig_dst = int(inverse[src]), int(inverse[dst])
            assert orig_src in reference.in_neighbors(orig_dst).tolist()

    def test_timing_components_positive(self, device, medium_graph):
        out = device.preprocess(medium_graph, PreprocessingConfig(batch_size=16, k=3, num_layers=2))
        timing = out.timing
        assert timing.ordering_cycles > 0
        assert timing.reshaping_cycles > 0
        assert timing.selecting_cycles > 0
        assert timing.reindexing_cycles > 0
        assert timing.total_cycles == sum(timing.breakdown().values())
        assert timing.total_seconds > 0
        assert 0 <= timing.bandwidth_utilization() <= 1

    @pytest.mark.parametrize(
        "num_nodes, num_edges, batch_size, k, seed",
        [
            (60, 400, 6, 2, 1),
            (60, 400, 6, 2, 2),
            (60, 400, 8, 3, 3),
            # The subgraph's mapping outgrows one reindexer scan.
            (120, 900, 10, 3, 0),
        ],
    )
    def test_detailed_matches_fast(self, tiny_hardware, num_nodes, num_edges, batch_size, k, seed):
        """The datapath emulation and the fast path return one result and
        charge the same four cycle counts."""
        graph = power_law_graph(
            GraphSpec(num_nodes=num_nodes, num_edges=num_edges, degree_skew=0.4, seed=seed)
        )
        cfg = PreprocessingConfig(batch_size=batch_size, k=k, num_layers=2, seed=seed)
        fast = AutoGNNDevice(tiny_hardware).preprocess(graph, cfg)
        detailed = AutoGNNDevice(tiny_hardware, detailed=True).preprocess(graph, cfg)
        if num_nodes > reindexer_scan_width(tiny_hardware):
            assert fast.result.num_sampled_nodes > reindexer_scan_width(tiny_hardware)
        a, b = fast.result, detailed.result
        assert a.sample.num_layers == b.sample.num_layers
        for x, y in zip(_edge_lists(a), _edge_lists(b)):
            assert np.array_equal(x.src, y.src) and np.array_equal(x.dst, y.dst)
        assert np.array_equal(a.sample.sampled_nodes, b.sample.sampled_nodes)
        assert np.array_equal(a.reindex.original_vids, b.reindex.original_vids)
        for csc_a, csc_b in ((a.csc, b.csc), (a.subgraph_csc, b.subgraph_csc)):
            assert np.array_equal(csc_a.indptr, csc_b.indptr)
            assert np.array_equal(csc_a.indices, csc_b.indices)
        assert fast.timing.breakdown() == detailed.timing.breakdown()

    def test_detailed_matches_fast_conversion_cycles(self, small_graph, tiny_hardware):
        _, fast_csc, fast_ord, fast_resh = AutoGNNDevice(
            tiny_hardware, detailed=False
        ).convert(small_graph)
        _, det_csc, det_ord, det_resh = AutoGNNDevice(
            tiny_hardware, detailed=True
        ).convert(small_graph)
        assert np.array_equal(fast_csc.indptr, det_csc.indptr)
        assert fast_ord == det_ord
        assert fast_resh == det_resh

    def test_explicit_batch_nodes(self, device, small_graph):
        out = device.preprocess(
            small_graph, PreprocessingConfig(k=2, num_layers=1), batch_nodes=[0, 1]
        )
        assert set(out.result.sample.batch_nodes.tolist()) == {0, 1}

    def test_reconfigure_swaps_kernels(self, device, small_graph):
        new_config = HardwareConfig(num_upes=4, upe_width=16, num_scrs=1, scr_width=32)
        before = device.preprocess(small_graph, PreprocessingConfig(batch_size=4, k=2, num_layers=1))
        device.reconfigure(new_config)
        after = device.preprocess(small_graph, PreprocessingConfig(batch_size=4, k=2, num_layers=1))
        assert device.config is new_config
        assert after.config is new_config
        # Different hardware, different cycle counts (smaller config is slower).
        assert after.timing.ordering_cycles >= before.timing.ordering_cycles

    def test_more_upes_fewer_ordering_cycles(self, medium_graph):
        small = AutoGNNDevice(HardwareConfig(num_upes=2, upe_width=32, num_scrs=1, scr_width=64))
        large = AutoGNNDevice(HardwareConfig(num_upes=32, upe_width=32, num_scrs=1, scr_width=64))
        cfg = PreprocessingConfig(batch_size=8, k=3, num_layers=2)
        a = small.preprocess(medium_graph, cfg)
        b = large.preprocess(medium_graph, cfg)
        assert b.timing.ordering_cycles < a.timing.ordering_cycles
