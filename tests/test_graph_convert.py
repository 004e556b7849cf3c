"""Tests for COO <-> CSC conversion, including property-based checks."""

import numpy as np
from conftest import validate_conversion
from hypothesis import example, given, seed, settings, strategies as st

from repro.graph.coo import COOGraph, VID_DTYPE, pack_keys
from repro.graph.convert import (
    _run_positions,
    build_pointer_array,
    coo_to_csc,
    csc_to_coo,
    edge_order,
    merge_edge_order,
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


def _edges(pairs):
    src = np.array([p[0] for p in pairs], dtype=VID_DTYPE)
    dst = np.array([p[1] for p in pairs], dtype=VID_DTYPE)
    return src, dst


@st.composite
def merges(draw):
    """An old graph and two batches; the node count grows by amounts that
    carry it across powers of two, and endpoints come from few VIDs so
    parallel edges and destinations of in-degree 0 are common."""

    def pairs(num_nodes, max_size):
        if num_nodes == 0:
            return []
        vid = st.integers(0, num_nodes - 1)
        return draw(st.lists(st.tuples(vid, vid), max_size=max_size))

    old_nodes = draw(st.integers(0, 9))
    old = pairs(old_nodes, 30)
    batches = []
    num_nodes = old_nodes
    for _ in range(2):
        num_nodes += draw(st.sampled_from([0, 1, 2, 7, 9]))
        batches.append((pairs(num_nodes, 12), num_nodes))
    return old, old_nodes, batches


class TestMergeEdgeOrder:
    @seed(20261019)
    @settings(max_examples=80, deadline=None)
    @given(case=merges())
    @example(case=([], 0, [([(0, 0), (1, 0)], 2), ([], 2)]))  # empty old layout
    @example(case=([(1, 3), (1, 3), (0, 3)], 4, [([(1, 3), (2, 3), (0, 1)], 4), ([], 5)]))
    @example(case=([(0, 1)], 2, [([(3, 3), (0, 2), (1, 1)], 4), ([(8, 0), (0, 8)], 9)]))
    def test_places_the_batch_as_packed_keys_do(self, case):
        """Each merge equals a full sort of all the edges, places the batch
        exactly where ``np.searchsorted`` over the packed old keys does (ties
        included) and carries the merged graph's pointer array."""
        old, old_nodes, batches = case
        layout = edge_order(COOGraph(*_edges(old), num_nodes=old_nodes))
        all_edges = list(old)
        for batch, num_nodes in batches:
            src, dst = _edges(batch)
            added = np.sort(pack_keys(src, dst, num_nodes))
            added_src, added_dst = COOGraph.deconcatenate_vids(added, num_nodes)
            indptr = (
                build_pointer_array(layout.dst, layout.num_nodes)
                if layout._indptr is None else layout._indptr
            )
            want = np.searchsorted(
                pack_keys(layout.src, layout.dst, num_nodes), added, side="left"
            )
            got = _run_positions(layout.src, indptr, added_src, added_dst)
            assert got.tolist() == want.tolist()

            layout = merge_edge_order(layout, src, dst, num_nodes)
            all_edges += batch
            expected = edge_order(COOGraph(*_edges(all_edges), num_nodes=num_nodes))
            assert layout.num_nodes == num_nodes
            assert np.array_equal(layout.src, expected.src)
            assert np.array_equal(layout.dst, expected.dst)
            assert np.array_equal(layout._indptr, build_pointer_array(expected.dst, num_nodes))
