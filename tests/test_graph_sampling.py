"""Tests for neighbour sampling (unique random selection)."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.core.accelerator import AutoGNNDevice
from repro.core.cost_model import total_selections
from repro.graph.convert import coo_to_csc
from repro.graph.coo import COOGraph
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.sampling import (
    _sorted_unique,
    dense_vid_range,
    node_wise_sample,
    node_wise_sample_reference,
    node_wise_sample_with_stats,
    sorted_unique,
)
from repro.preprocessing.pipeline import PreprocessingConfig, preprocess


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


class TestDenseRangeRule:
    def test_four_vids_per_value(self):
        assert dense_vid_range(4 * 1000 + 1024, 1000)
        assert not dense_vid_range(4 * 1000 + 1025, 1000)
        assert not dense_vid_range(0, 1000)


class TestBatchRange:
    @pytest.mark.parametrize("bad", [-1, 80, -(2**40)], ids=["negative", "at-range", "far-below"])
    def test_out_of_range_batch_vids_raise_on_every_path(self, csc, bad):
        """A negative VID once sampled around VID ``num_nodes - 1`` while the
        sample still read ``-1``; every path now raises ``IndexError``."""
        batch = [3, bad]
        with pytest.raises(IndexError, match=r"\[0, num_nodes\) = \[0, 80\)"):
            node_wise_sample_with_stats(csc, batch, k=3, num_layers=1)
        with pytest.raises(IndexError, match="out of range"):
            node_wise_sample_reference(csc, batch, k=3, num_layers=1)
        dst = np.repeat(np.arange(80), np.diff(csc.indptr))
        graph = COOGraph(src=csc.indices, dst=dst, num_nodes=80)
        config = PreprocessingConfig(k=3, num_layers=1, batch_size=1)
        for run in (preprocess, AutoGNNDevice().preprocess):
            with pytest.raises(IndexError, match=r"\[0, 80\)"):
                run(graph, config, batch_nodes=[bad])

    def test_batch_array_is_copied(self, csc):
        batch = np.array([4, 2, 4], dtype=np.int64)
        sample = node_wise_sample(csc, batch, k=3, num_layers=1, seed=0)
        batch[0] = 7
        assert sample.batch_nodes.tolist() == [4, 2, 4]
        assert node_wise_sample(csc, (4, 2), k=3, num_layers=1, seed=0).num_layers == 1


@st.composite
def sampler_cases(draw):
    """``(csc, batch, k, num_layers, seed)`` on a small graph whose upper VIDs
    are isolated, so frontiers may run dry before the last hop."""
    num_nodes = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_edges = draw(st.integers(0, 120))
    hot = draw(st.integers(1, num_nodes))
    graph = COOGraph(
        src=rng.integers(0, hot, size=num_edges),
        dst=rng.integers(0, hot, size=num_edges),
        num_nodes=num_nodes,
    )
    batch = draw(st.lists(st.integers(0, num_nodes - 1), max_size=6))
    k = draw(st.sampled_from([1, 2, 3, 1000]))
    return coo_to_csc(graph), batch, k, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


def _chain_csc():
    """1 -> 0 and 2 -> 1: a frontier from 0 runs dry at hop three."""
    return coo_to_csc(COOGraph(src=np.array([1, 2]), dst=np.array([0, 1]), num_nodes=4))


@seed(20261020)
@settings(max_examples=80, deadline=None)
@given(case=sampler_cases())
@example(case=(_chain_csc(), [0], 2, 4, 0))
@example(case=(_chain_csc(), [3], 2, 2, 0))
def test_sampler_equals_its_oracle_at_one_to_four_layers(case):
    """Sample and stats equal the oracle's at every depth, also when the
    frontier empties before the last hop (no frontier follows that hop)."""
    csc, batch, k, num_layers, draw_seed = case
    fast, fast_stats = node_wise_sample_with_stats(csc, batch, k, num_layers, seed=draw_seed)
    ref, ref_stats = node_wise_sample_reference(csc, batch, k, num_layers, seed=draw_seed)
    assert fast_stats == ref_stats
    assert fast.num_layers == ref.num_layers <= num_layers
    for got, want in zip(fast.layers, ref.layers):
        assert np.array_equal(got.src, want.src) and np.array_equal(got.dst, want.dst)
    assert np.array_equal(fast.sampled_nodes, ref.sampled_nodes)
    assert np.array_equal(fast.batch_nodes, ref.batch_nodes)


def test_chain_frontier_runs_dry_before_the_last_hop():
    sample = node_wise_sample(_chain_csc(), [0], k=2, num_layers=4, seed=0)
    assert [layer.num_edges for layer in sample.layers] == [0, 1, 1]
    assert sample.sampled_nodes.tolist() == [0, 1, 2]
