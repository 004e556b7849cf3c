"""Tests for neighbour sampling (unique random selection)."""

import numpy as np
import pytest

from repro.core.cost_model import total_selections
from repro.graph.convert import coo_to_csc
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.sampling import (
    _sorted_unique,
    dense_vid_range,
    node_wise_sample,
    node_wise_sample_reference,
    sorted_unique,
)


@pytest.fixture
def csc():
    graph = power_law_graph(GraphSpec(num_nodes=80, num_edges=900, degree_skew=0.5, seed=5))
    return coo_to_csc(graph)


def one_hop_picks(csc, k, seed):
    """Every node's picks from one hop over all nodes, keyed by node."""
    layer = node_wise_sample(csc, range(csc.num_nodes), k=k, num_layers=1, seed=seed).layers[0]
    return {node: layer.src[layer.dst == node] for node in range(csc.num_nodes)}


class TestOneHopSelection:
    def test_returns_at_most_k(self, csc):
        for picked in one_hop_picks(csc, 3, seed=0).values():
            assert len(picked) <= 3

    def test_unique(self, csc):
        for picked in one_hop_picks(csc, 5, seed=1).values():
            assert len(set(picked.tolist())) == len(picked)

    def test_subset_of_neighbors(self, csc):
        for node, picked in one_hop_picks(csc, 4, seed=2).items():
            assert set(picked.tolist()).issubset(set(csc.in_neighbors(node).tolist()))

    def test_small_neighborhood_returned_whole(self, csc):
        picks = one_hop_picks(csc, 10, seed=3)
        for node in range(csc.num_nodes):
            neighbors = np.unique(csc.in_neighbors(node))
            if neighbors.size <= 10:
                assert picks[node].tolist() == neighbors.tolist()


class TestNodeWise:
    def test_layer_count(self, csc):
        sample = node_wise_sample(csc, [0, 1, 2], k=3, num_layers=2, seed=0)
        assert sample.num_layers <= 2

    def test_edges_point_to_frontier(self, csc):
        batch = [0, 5, 9]
        sample = node_wise_sample(csc, batch, k=3, num_layers=1, seed=1)
        layer = sample.layers[-1]
        assert set(layer.dst.tolist()).issubset(set(batch))

    def test_edges_exist_in_graph(self, csc):
        sample = node_wise_sample(csc, [0, 1], k=4, num_layers=2, seed=2)
        for layer in sample.layers:
            for src, dst in zip(layer.src.tolist(), layer.dst.tolist()):
                assert src in csc.in_neighbors(dst).tolist()

    def test_sampled_nodes_cover_edges(self, csc):
        sample = node_wise_sample(csc, [3, 4], k=3, num_layers=2, seed=3)
        touched = set(sample.batch_nodes.tolist())
        for layer in sample.layers:
            touched.update(layer.src.tolist())
            touched.update(layer.dst.tolist())
        assert touched.issubset(set(sample.sampled_nodes.tolist()))

    def test_per_node_cap(self, csc):
        k = 4
        sample = node_wise_sample(csc, [0, 1, 2, 3], k=k, num_layers=2, seed=4)
        for layer in sample.layers:
            dst, counts = np.unique(layer.dst, return_counts=True)
            assert np.all(counts <= k)

    def test_deterministic_seed(self, csc):
        a = node_wise_sample(csc, [0, 1], k=3, num_layers=2, seed=9)
        b = node_wise_sample(csc, [0, 1], k=3, num_layers=2, seed=9)
        assert np.array_equal(a.sampled_nodes, b.sampled_nodes)

    def test_all_edges_concatenation(self, csc):
        sample = node_wise_sample(csc, [0, 1], k=3, num_layers=2, seed=5)
        combined = sample.all_edges()
        assert combined.num_edges == sample.num_sampled_edges


class TestBounds:
    def test_total_selections_geometric(self):
        assert total_selections(1, 10, 2) == 111
        assert total_selections(2, 10, 2) == 222

    def test_total_selections_k1(self):
        assert total_selections(3, 1, 2) == 9

    def test_sample_never_exceeds_bound(self, csc):
        batch = list(range(5))
        sample = node_wise_sample(csc, batch, k=3, num_layers=2, seed=6)
        assert sample.num_sampled_nodes <= total_selections(5, 3, 2)


#: A VID range whose ``_sorted_unique`` takes the dense scatter for any input
#: below, and one so large that it takes the sort for every input below.
DENSE_NODES = 64
SPARSE_NODES = 10**9


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [[], [5], [7, 7, 7, 7], [3, 0, 3, 63, 1, 0], list(range(63, -1, -1))],
        ids=["empty", "single", "all-equal", "repeats", "reversed"],
    )
    @pytest.mark.parametrize("num_nodes", [DENSE_NODES, SPARSE_NODES], ids=["dense", "sparse"])
    def test_both_branches_equal_np_unique(self, values, num_nodes):
        values = np.array(values, dtype=np.int64)
        want = np.unique(values)
        for got in (_sorted_unique(values, num_nodes), sorted_unique(values)):
            assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-threshold", "above-threshold"])
    def test_either_side_of_the_dense_range_rule(self, extra):
        """A batch whose VID range sits at the shared threshold scatters, one
        above sorts; both equal ``np.unique``, and the sampler that dedups its
        batch by the rule equals the oracle."""
        values = np.array([0, 5, 5, 9, 3, 0, 77], dtype=np.int64)
        num_nodes = 4 * values.size + 1024 + extra
        assert dense_vid_range(num_nodes, values.size) == (extra == 0)
        assert np.array_equal(_sorted_unique(values, num_nodes), np.unique(values))
        graph = power_law_graph(
            GraphSpec(num_nodes=num_nodes, num_edges=4000, degree_skew=0.5, seed=5)
        )
        csc = coo_to_csc(graph)
        fast = node_wise_sample(csc, values, k=3, num_layers=2, seed=4)
        ref, _ = node_wise_sample_reference(csc, values, 3, 2, 4)
        for a, b in zip(fast.layers, ref.layers):
            assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        assert np.array_equal(fast.sampled_nodes, ref.sampled_nodes)

    def test_leaves_its_input_unsorted(self):
        values = np.array([4, 1, 4, 0], dtype=np.int64)
        sorted_unique(values)
        assert values.tolist() == [4, 1, 4, 0]
