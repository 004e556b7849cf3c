"""Tests for COO <-> CSC conversion, including property-based checks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.coo import COOGraph
from repro.graph.convert import (
    build_pointer_array,
    coo_to_csc,
    csc_to_coo,
    edge_order,
    validate_conversion,
)


def random_graph(num_nodes, num_edges, seed):
    rng = np.random.default_rng(seed)
    return COOGraph(
        src=rng.integers(0, num_nodes, size=num_edges),
        dst=rng.integers(0, num_nodes, size=num_edges),
        num_nodes=num_nodes,
    )


class TestEdgeOrder:
    def test_sorted_by_dst_then_src(self):
        g = random_graph(20, 100, 0)
        ordered = edge_order(g)
        keys = ordered.dst * 100 + ordered.src
        assert np.all(np.diff(keys) >= 0)

    def test_preserves_edge_multiset(self):
        g = random_graph(10, 50, 1)
        ordered = edge_order(g)
        original = sorted(zip(g.src.tolist(), g.dst.tolist()))
        new = sorted(zip(ordered.src.tolist(), ordered.dst.tolist()))
        assert original == new

    def test_empty_graph(self):
        g = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=3)
        assert edge_order(g).num_edges == 0


class TestPointerArray:
    def test_known_example(self):
        indptr = build_pointer_array(np.array([0, 0, 1, 3]), 4)
        assert indptr.tolist() == [0, 2, 3, 3, 4]

    def test_empty(self):
        assert build_pointer_array(np.array([], dtype=int), 3).tolist() == [0, 0, 0, 0]

    def test_counts_match_degrees(self):
        g = random_graph(30, 200, 2)
        ordered = edge_order(g)
        indptr = build_pointer_array(ordered.dst, g.num_nodes)
        assert np.array_equal(np.diff(indptr), g.in_degrees())


class TestConversion:
    def test_roundtrip(self):
        g = random_graph(25, 150, 3)
        csc = coo_to_csc(g)
        back = csc_to_coo(csc)
        assert back.num_edges == g.num_edges
        assert sorted(zip(back.src.tolist(), back.dst.tolist())) == sorted(
            zip(g.src.tolist(), g.dst.tolist())
        )

    def test_neighbors_match_bruteforce(self):
        g = random_graph(15, 80, 4)
        csc = coo_to_csc(g)
        for dst in range(g.num_nodes):
            expected = sorted(g.src[g.dst == dst].tolist())
            assert sorted(csc.in_neighbors(dst).tolist()) == expected

    def test_validate_conversion_accepts_reference(self):
        g = random_graph(12, 60, 5)
        assert validate_conversion(g, coo_to_csc(g))

    def test_validate_conversion_rejects_wrong_csc(self):
        g = random_graph(12, 60, 6)
        other = coo_to_csc(random_graph(12, 60, 7))
        assert not validate_conversion(g, other)

    @given(
        st.integers(1, 60),
        st.integers(0, 300),
        st.integers(0, 1_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_conversion_property(self, num_nodes, num_edges, seed):
        g = random_graph(num_nodes, num_edges, seed)
        csc = coo_to_csc(g)
        csc.validate()
        assert csc.num_edges == g.num_edges
        assert int(csc.indptr[-1]) == g.num_edges
        assert np.array_equal(np.diff(csc.indptr), g.in_degrees())
