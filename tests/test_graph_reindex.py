"""Tests for subgraph reindexing."""

import numpy as np
import pytest

from repro.graph.convert import coo_to_csc
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.reindex import (
    gather_embeddings,
    reindex_edges,
    reindex_edges_reference,
    reindex_subgraph,
)
from repro.graph.sampling import node_wise_sample


def reindex_edges_oracle(src, dst):
    """The hash-map oracle's result, without its occupancies."""
    return reindex_edges_reference(src, dst)[0]


#: Every contract below holds for the fast path and for its oracle.
@pytest.fixture(params=[reindex_edges, reindex_edges_oracle], ids=["fast", "oracle"])
def reindex(request):
    return request.param


class TestReindexEdges:
    def test_dense_range(self, reindex):
        result = reindex(np.array([10, 20, 10]), np.array([30, 30, 20]))
        all_ids = set(result.edges.src.tolist()) | set(result.edges.dst.tolist())
        assert all_ids == set(range(len(result.mapping)))

    def test_first_seen_order_dst_then_src(self, reindex):
        result = reindex(np.array([7]), np.array([9]))
        assert result.mapping[9] == 0
        assert result.mapping[7] == 1

    def test_mapping_consistency(self, reindex):
        src = np.array([5, 6, 5, 8])
        dst = np.array([6, 5, 8, 5])
        result = reindex(src, dst)
        for i in range(len(src)):
            assert result.edges.src[i] == result.mapping[int(src[i])]
            assert result.edges.dst[i] == result.mapping[int(dst[i])]

    def test_original_vids_inverse(self, reindex):
        result = reindex(np.array([3, 9, 12]), np.array([9, 3, 3]))
        for orig, new in result.mapping.items():
            assert result.original_vids[new] == orig

    def test_empty_edges(self, reindex):
        result = reindex(np.array([], dtype=int), np.array([], dtype=int))
        assert result.num_sampled_nodes == 0
        assert result.edges.num_edges == 0

    def test_oracle_records_each_lookups_occupancy(self):
        # Lookups in scan order: 30, 10, 30, 20, 20, 10; an empty bank reads 1.
        _, occupancy = reindex_edges_reference(
            np.array([10, 20, 10]), np.array([30, 30, 20])
        )
        assert occupancy.tolist() == [1, 1, 2, 2, 3, 3]


class TestReindexSubgraph:
    @pytest.fixture
    def sample(self):
        graph = power_law_graph(GraphSpec(num_nodes=70, num_edges=700, degree_skew=0.4, seed=8))
        csc = coo_to_csc(graph)
        return node_wise_sample(csc, [0, 1, 2, 3], k=4, num_layers=2, seed=0)

    def test_edge_count_preserved(self, sample):
        result = reindex_subgraph(sample)
        assert result.edges.num_edges == sample.num_sampled_edges

    def test_all_sampled_vertices_mapped(self, sample):
        result = reindex_subgraph(sample)
        combined = sample.all_edges()
        touched = set(combined.src.tolist()) | set(combined.dst.tolist())
        assert touched == set(result.mapping.keys())

    def test_structure_preserved(self, sample):
        result = reindex_subgraph(sample)
        combined = sample.all_edges()
        for i in range(combined.num_edges):
            assert result.edges.src[i] == result.mapping[int(combined.src[i])]
            assert result.edges.dst[i] == result.mapping[int(combined.dst[i])]


class TestGatherEmbeddings:
    def test_rows_follow_new_ids(self):
        embeddings = np.arange(50, dtype=float).reshape(25, 2)
        result = reindex_edges(np.array([3, 7]), np.array([7, 11]))
        table = gather_embeddings(embeddings, result)
        assert table.shape == (3, 2)
        assert np.array_equal(table[result.mapping[7]], embeddings[7])
        assert np.array_equal(table[result.mapping[11]], embeddings[11])
