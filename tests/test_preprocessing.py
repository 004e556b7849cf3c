"""Tests for the functional preprocessing workflow (Fig. 14)."""

import numpy as np
import pytest

from repro.core.accelerator import AutoGNNDevice
from repro.graph.convert import coo_to_csc, csc_from_ordered, edge_order
from repro.preprocessing.pipeline import PreprocessingConfig, choose_batch_nodes, preprocess


class TestSteps:
    def test_edge_ordering_step(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=3, batch_size=8))
        assert result.ordered.is_sorted()
        assert result.ordered.num_edges == small_graph.num_edges

    def test_data_reshaping_step(self, small_graph):
        csc = csc_from_ordered(edge_order(small_graph))
        expected = coo_to_csc(small_graph)
        assert np.array_equal(csc.indptr, expected.indptr)
        assert np.array_equal(csc.indices, expected.indices)

    def test_selection_step_node_wise(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=3), batch_nodes=[0, 1, 2])
        assert result.sample.num_sampled_nodes > 0

    @pytest.mark.parametrize("field", ["k", "num_layers", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=rf"PreprocessingConfig\.{field} must be >= 1, got {value}"):
            PreprocessingConfig(**{field: value})

    def test_reindexing_step(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=3), batch_nodes=[0, 1])
        assert result.reindex.edges.num_edges == result.sample.num_sampled_edges


class TestPipeline:
    def test_full_run(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=3, batch_size=8, seed=1))
        assert result.csc.num_edges == small_graph.num_edges
        assert result.num_sampled_edges == result.reindex.edges.num_edges
        assert result.subgraph_csc.num_edges == result.num_sampled_edges

    def test_device_computes_the_same_result(self, small_graph):
        config = PreprocessingConfig(k=3, batch_size=8, seed=4)
        reference = preprocess(small_graph, config)
        device = AutoGNNDevice().preprocess(small_graph, config).result
        assert np.array_equal(reference.sample.batch_nodes, device.sample.batch_nodes)
        assert reference.reindex.mapping == device.reindex.mapping
        for name in ("csc", "subgraph_csc"):
            assert np.array_equal(getattr(reference, name).indptr, getattr(device, name).indptr)
            assert np.array_equal(getattr(reference, name).indices, getattr(device, name).indices)

    def test_batch_capped_by_node_count(self, small_graph):
        config = PreprocessingConfig(batch_size=10_000, k=2, num_layers=1)
        batch = choose_batch_nodes(small_graph, config)
        assert len(batch) == small_graph.num_nodes
        assert len(set(batch.tolist())) == len(batch)

    def test_explicit_batch_nodes(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=2, num_layers=1), batch_nodes=[0, 1, 2])
        assert set(result.sample.batch_nodes.tolist()) == {0, 1, 2}

    def test_subgraph_csc_consistent_with_reindex(self, small_graph):
        result = preprocess(small_graph, PreprocessingConfig(k=3, batch_size=6, seed=2))
        rebuilt = coo_to_csc(result.reindex.edges)
        assert np.array_equal(rebuilt.indptr, result.subgraph_csc.indptr)

    def test_deterministic_given_seed(self, small_graph):
        config = PreprocessingConfig(k=3, batch_size=6, seed=5)
        a = preprocess(small_graph, config)
        b = preprocess(small_graph, config)
        assert np.array_equal(a.reindex.edges.src, b.reindex.edges.src)
