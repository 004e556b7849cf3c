"""Tests for the COO graph container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.coo import COOGraph, vid_bits


def make_graph():
    return COOGraph(src=np.array([0, 2, 1, 3]), dst=np.array([1, 0, 1, 2]), num_nodes=4)


class TestConstruction:
    def test_basic_counts(self):
        g = make_graph()
        assert g.num_edges == 4
        assert g.num_nodes == 4
        assert len(g) == 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, 1]), dst=np.array([0]), num_nodes=2)

    def test_out_of_range_vid_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, 5]), dst=np.array([1, 1]), num_nodes=3)

    def test_negative_vid_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, -1]), dst=np.array([1, 1]), num_nodes=3)

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=-1)

    def test_empty_graph(self):
        g = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=5)
        assert g.num_edges == 0
        assert g.avg_degree == 0.0
        assert g.is_sorted()


class TestDegrees:
    def test_in_degrees(self):
        g = make_graph()
        assert g.in_degrees().tolist() == [1, 2, 1, 0]

    def test_out_degrees(self):
        g = make_graph()
        assert g.out_degrees().tolist() == [1, 1, 1, 1]

    def test_max_degree(self):
        assert make_graph().max_degree() == 2

    def test_avg_degree(self):
        assert make_graph().avg_degree == pytest.approx(1.0)


class TestOperations:
    def test_edges_matrix(self):
        edges = make_graph().edges()
        assert edges.shape == (4, 2)
        assert edges[0].tolist() == [0, 1]

    def test_iteration(self):
        pairs = list(make_graph())
        assert pairs[1] == (2, 0)

    def test_copy_is_independent(self):
        g = make_graph()
        c = g.copy()
        c.src[0] = 3
        assert g.src[0] == 0

    def test_add_edges(self):
        g = make_graph()
        bigger = g.add_edges(np.array([0]), np.array([3]))
        assert bigger.num_edges == 5
        assert g.num_edges == 4

    def test_add_edges_with_new_nodes(self):
        g = make_graph()
        bigger = g.add_edges(np.array([4]), np.array([0]), num_nodes=5)
        assert bigger.num_nodes == 5

    @pytest.mark.parametrize(
        "src, dst, num_nodes, message",
        [
            ([0], [4], None, "VID 4 out of range for num_nodes=4"),
            ([9], [0], 6, "VID 9 out of range for num_nodes=6"),
            ([-1], [0], None, "VIDs must be non-negative"),
            ([0], [-3], 5, "VIDs must be non-negative"),
        ],
    )
    def test_add_edges_rejects_invalid_appended_edges(self, src, dst, num_nodes, message):
        with pytest.raises(ValueError, match=message):
            make_graph().add_edges(np.array(src), np.array(dst), num_nodes=num_nodes)

    def test_add_edges_shrinking_num_nodes_rechecks_existing_edges(self):
        # Existing edge 3 -> 2 is invalid once the graph has only 3 nodes.
        with pytest.raises(ValueError, match="VID 3 out of range for num_nodes=3"):
            make_graph().add_edges(np.array([0]), np.array([1]), num_nodes=3)

    def test_add_edges_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            make_graph().add_edges(np.array([0, 1]), np.array([1]))

    def test_subgraph_edges(self):
        g = make_graph()
        sub = g.subgraph_edges(np.array([True, False, True, False]))
        assert sub.num_edges == 2

    def test_nbytes_positive(self):
        assert make_graph().nbytes() > 0

    def test_is_sorted_detection(self):
        unsorted = make_graph()
        assert not unsorted.is_sorted()
        ordered = COOGraph(src=np.array([0, 1]), dst=np.array([0, 1]), num_nodes=2)
        assert ordered.is_sorted()


class TestConcatenation:
    def test_roundtrip(self):
        g = make_graph()
        keys = g.concatenate_vids()
        src, dst = COOGraph.deconcatenate_vids(keys, g.num_nodes)
        assert np.array_equal(src, g.src)
        assert np.array_equal(dst, g.dst)

    def test_sort_order_is_dst_major(self):
        g = make_graph()
        keys = np.sort(g.concatenate_vids())
        src, dst = COOGraph.deconcatenate_vids(keys, g.num_nodes)
        assert np.all(np.diff(dst) >= 0)

    @pytest.mark.parametrize("num_nodes, bits", [(0, 1), (1, 1), (2, 1), (15, 4), (16, 4), (17, 5)])
    def test_keys_fit_twice_the_vid_width(self, num_nodes, bits):
        """A power-of-two node count needs no extra bit: the radix-sort
        emulation sorts exactly ``2 * vid_bits`` key bits."""
        assert vid_bits(num_nodes) == bits
        if num_nodes:
            top = np.array([num_nodes - 1])
            keys = COOGraph(src=top, dst=top, num_nodes=num_nodes).concatenate_vids()
            assert int(keys[0]) < 1 << (2 * bits)

    @given(st.integers(2, 500), st.integers(1, 200), st.integers(0, 10_000))
    def test_roundtrip_property(self, num_nodes, num_edges, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        g = COOGraph(src=src, dst=dst, num_nodes=num_nodes)
        keys = g.concatenate_vids()
        rsrc, rdst = COOGraph.deconcatenate_vids(keys, num_nodes)
        assert np.array_equal(rsrc, g.src)
        assert np.array_equal(rdst, g.dst)
