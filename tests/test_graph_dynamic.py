"""Tests for dynamic graphs and update streams."""

import copy
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.graph.dynamic import (
    DAILY_GROWTH_RATE,
    DynamicGraph,
    GraphUpdateStream,
    UpdateBatch,
    affected_vertex_ratio,
    critical_update_ratio,
)
from repro.core.accelerator import AutoGNNDevice
from repro.graph.convert import build_pointer_array, edge_order, merge_edge_order
from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.generators import grow_graph, uniform_random_graph
from repro.preprocessing.pipeline import PreprocessingConfig, preprocess


@pytest.fixture
def base():
    return uniform_random_graph(100, 1000, seed=10)


class TestUpdateStream:
    def test_growth_rate(self, base):
        stream = GraphUpdateStream(base, growth_rate=0.1, seed=0)
        batches = list(stream.generate(3))
        assert len(batches) == 3
        assert batches[0].num_edges == pytest.approx(100, abs=2)
        # Each batch grows relative to the compounded edge count.
        assert batches[2].num_edges > batches[0].num_edges

    def test_negative_growth_rejected(self, base):
        with pytest.raises(ValueError):
            GraphUpdateStream(base, growth_rate=-0.1)

    def test_replay_accumulates(self, base):
        stream = GraphUpdateStream(base, growth_rate=0.05, seed=1)
        dynamic = stream.replay(4)
        assert dynamic.num_steps == 4
        assert dynamic.graph.num_edges > base.num_edges

    def test_new_nodes_added(self, base):
        stream = GraphUpdateStream(base, growth_rate=0.2, new_node_rate=0.5, seed=2)
        dynamic = stream.replay(2)
        assert dynamic.graph.num_nodes > base.num_nodes

    @pytest.mark.parametrize(
        "num_nodes, num_edges, new_node_rate, preferential",
        [(100, 1000, 0.1, True), (100, 1000, 0.5, False), (30, 0, 0.3, True), (7, 20, 1.0, True)],
    )
    def test_generate_draws_as_grow_graph_does(
        self, num_nodes, num_edges, new_node_rate, preferential
    ):
        """The O(batch) stream yields the batches of growing a full copy of
        the graph with ``grow_graph`` at every step."""
        base = uniform_random_graph(num_nodes, num_edges, seed=5)
        stream = GraphUpdateStream(
            base, growth_rate=0.05, new_node_rate=new_node_rate, preferential=preferential, seed=8
        )
        rng = np.random.default_rng(8)
        current = base.copy()
        for batch in stream.generate(12):
            add = max(int(round(current.num_edges * 0.05)), 1)
            new_nodes = int(round(add * new_node_rate))
            grown = grow_graph(current, add, rng=rng, preferential=preferential)
            dst = grown.dst[current.num_edges :].copy()
            if new_nodes > 0:
                idx = rng.choice(add, size=min(new_nodes, add), replace=False)
                dst[idx] = current.num_nodes + np.arange(len(idx), dtype=VID_DTYPE)
            assert batch.new_nodes == new_nodes
            assert np.array_equal(batch.src, grown.src[current.num_edges :])
            assert np.array_equal(batch.dst, dst)
            assert batch.src.dtype == batch.dst.dtype == VID_DTYPE
            current = current.add_edges(batch.src, dst, num_nodes=current.num_nodes + new_nodes)

    def test_generate_rejects_graph_without_vertices(self):
        empty = COOGraph(src=np.empty(0), dst=np.empty(0), num_nodes=0)
        with pytest.raises(ValueError, match="out of range"):
            next(GraphUpdateStream(empty, growth_rate=0.1).generate(1))

    def test_paper_growth_rates_present(self):
        assert DAILY_GROWTH_RATE["SO"] == pytest.approx(0.0052)
        assert DAILY_GROWTH_RATE["TB"] == pytest.approx(0.0095)


class TestDynamicGraph:
    def test_apply_and_ratio(self, base):
        dynamic = DynamicGraph(graph=base.copy())
        batch = UpdateBatch(step=0, src=np.array([0, 1]), dst=np.array([2, 3]))
        before = dynamic.graph.num_edges
        dynamic.apply(batch)
        assert dynamic.graph.num_edges == before + 2
        assert 0 < dynamic.update_ratio(batch) < 1

    def test_apply_with_new_nodes(self, base):
        dynamic = DynamicGraph(graph=base.copy())
        batch = UpdateBatch(step=0, src=np.array([0]), dst=np.array([100]), new_nodes=1)
        dynamic.apply(batch)
        assert dynamic.graph.num_nodes == base.num_nodes + 1


    def test_apply_rejects_invalid_update(self, base):
        dynamic = DynamicGraph(graph=base.copy())
        batch = UpdateBatch(step=0, src=np.array([0]), dst=np.array([base.num_nodes]))
        with pytest.raises(ValueError, match="out of range"):
            dynamic.apply(batch)
        batch = UpdateBatch(step=0, src=np.array([-1]), dst=np.array([0]))
        with pytest.raises(ValueError, match="non-negative"):
            dynamic.apply(batch)
        assert dynamic.num_steps == 0

        # A rejected batch also leaves a snapshot's seeded layout untouched.
        snapshot = dynamic.apply(UpdateBatch(step=0, src=np.array([1]), dst=np.array([2])))
        layout = snapshot._ordered
        assert layout is not None
        layout_arrays = [layout.src.copy(), layout.dst.copy(), layout.in_degrees().copy()]
        edges = [snapshot.src.copy(), snapshot.dst.copy()]
        for bad in (
            UpdateBatch(step=1, src=np.array([0]), dst=np.array([base.num_nodes])),
            UpdateBatch(step=1, src=np.array([-1]), dst=np.array([0]), new_nodes=1),
        ):
            with pytest.raises(ValueError):
                dynamic.apply(bad)
        assert dynamic.num_steps == 1
        assert dynamic.graph is snapshot and snapshot._ordered is layout
        assert layout.num_nodes == snapshot.num_nodes == base.num_nodes
        for got, want in zip([layout.src, layout.dst, layout.in_degrees()], layout_arrays):
            assert np.array_equal(got, want)
        for got, want in zip([snapshot.src, snapshot.dst], edges):
            assert np.array_equal(got, want)

    def test_apply_rejects_shrinking_batch(self, base):
        """A negative ``new_nodes`` is rejected before anything changes, on
        the first apply and on a snapshot that carries a layout."""
        dynamic = DynamicGraph(graph=base)
        shrink = UpdateBatch(step=0, src=np.array([0]), dst=np.array([1]), new_nodes=-2)
        with pytest.raises(ValueError, match="new_nodes must be non-negative"):
            dynamic.apply(shrink)
        assert dynamic.graph is base and dynamic.num_steps == 0
        assert base.num_nodes == 100 and base._ordered is None

        snapshot = dynamic.apply(UpdateBatch(step=0, src=np.array([1]), dst=np.array([2])))
        layout = snapshot._ordered
        kept = [snapshot.src.copy(), snapshot.dst.copy(), layout.src.copy(), layout.dst.copy()]
        pointers = layout._indptr.copy()
        with pytest.raises(ValueError, match="new_nodes must be non-negative"):
            dynamic.apply(replace(shrink, step=1))
        assert dynamic.graph is snapshot and dynamic.num_steps == 1
        assert snapshot.num_nodes == layout.num_nodes == base.num_nodes
        assert snapshot._ordered is layout and np.array_equal(layout._indptr, pointers)
        for got, want in zip([snapshot.src, snapshot.dst, layout.src, layout.dst], kept):
            assert np.array_equal(got, want)
        # The graph still takes the next valid batch.
        grown = dynamic.apply(UpdateBatch(step=1, src=np.array([3]), dst=np.array([4])))
        assert grown.num_edges == base.num_edges + 2 and grown.num_nodes == base.num_nodes

    def test_earlier_snapshots_survive_later_applies(self):
        """Snapshots are read-only prefix views of one growing buffer: after
        many applies, buffer moves included, every snapshot still holds the
        edges it was made with, orders as its copy does, and the base graph
        was never written."""
        base = uniform_random_graph(40, 60, seed=3)
        base_arrays = [base.src.copy(), base.dst.copy()]
        stream = GraphUpdateStream(base, growth_rate=0.1, new_node_rate=0.2, seed=6)
        dynamic = DynamicGraph(graph=base)
        made = []
        for batch in stream.generate(22):
            snapshot = dynamic.apply(batch)
            made.append((snapshot, snapshot.src.copy(), snapshot.dst.copy()))
        buffers = {id(snapshot.src.base) for snapshot, _, _ in made}
        assert len(buffers) >= 2, "the stream must outgrow the first buffer"
        for snapshot, src, dst in made:
            assert np.array_equal(snapshot.src, src) and np.array_equal(snapshot.dst, dst)
            for array in (snapshot.src, snapshot.dst):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
                assert not np.shares_memory(array, base.src)
                assert not np.shares_memory(array, base.dst)
            ordered, fresh = edge_order(snapshot), edge_order(snapshot.copy())
            assert np.array_equal(ordered.src, fresh.src)
            assert np.array_equal(ordered.dst, fresh.dst)
        assert made[-1][0]._ordered is not None
        assert all(snapshot._ordered is None for snapshot, _, _ in made[:-1])
        assert np.array_equal(base.src, base_arrays[0])
        assert np.array_equal(base.dst, base_arrays[1])
        assert base.src.flags.writeable and base._ordered is None

    def test_apply_never_writes_over_a_later_snapshot(self, base):
        """Applying to a graph that is not the buffer's last snapshot (one
        a copy of the ``DynamicGraph`` has grown past, or an earlier one put
        back) copies it into a fresh buffer."""
        dynamic = DynamicGraph(graph=base)
        first = dynamic.apply(UpdateBatch(step=0, src=np.array([1]), dst=np.array([2])))
        second = dynamic.apply(UpdateBatch(step=1, src=np.array([3]), dst=np.array([4])))
        twin = copy.copy(dynamic)
        twin_next = twin.apply(UpdateBatch(step=2, src=np.array([5]), dst=np.array([6])))
        kept = [twin_next.src.copy(), twin_next.dst.copy()]
        branches = [dynamic.apply(UpdateBatch(step=2, src=np.array([7]), dst=np.array([8])))]
        dynamic.graph = first
        branches.append(dynamic.apply(UpdateBatch(step=1, src=np.array([9]), dst=np.array([0]))))
        assert np.array_equal(twin_next.src, kept[0]) and np.array_equal(twin_next.dst, kept[1])
        assert (twin_next.src[-1], twin_next.dst[-1]) == (5, 6)
        assert twin_next.src.base is second.src.base
        for branch, (src, dst) in zip(branches, [(7, 8), (9, 0)]):
            assert (branch.src[-1], branch.dst[-1]) == (src, dst)
            assert not np.shares_memory(branch.src, twin_next.src)
        assert branches[1].num_edges == first.num_edges + 1
        # A replacement of the same length is not the buffer's snapshot either.
        other = COOGraph(src=twin_next.dst, dst=twin_next.src, num_nodes=twin_next.num_nodes)
        twin.graph = other
        swapped = twin.apply(UpdateBatch(step=3, src=np.array([1]), dst=np.array([1])))
        assert np.array_equal(swapped.src[:-1], other.src)
        assert np.array_equal(swapped.dst[:-1], other.dst)

    def test_stream_snapshot_equals_direct_build_and_preprocesses_identically(self, base):
        stream = GraphUpdateStream(base, growth_rate=0.05, new_node_rate=0.3, seed=4)
        batches = list(stream.generate(5))
        dynamic = DynamicGraph(graph=base.copy())
        for batch in batches:
            snapshot = dynamic.apply(batch)
        direct = COOGraph(
            src=np.concatenate([base.src] + [b.src for b in batches]),
            dst=np.concatenate([base.dst] + [b.dst for b in batches]),
            num_nodes=base.num_nodes + sum(b.new_nodes for b in batches),
        )
        assert snapshot.num_nodes == direct.num_nodes > base.num_nodes
        assert np.array_equal(snapshot.src, direct.src)
        assert np.array_equal(snapshot.dst, direct.dst)

        workload = PreprocessingConfig(k=4, num_layers=2, batch_size=20, seed=3)
        runs = [AutoGNNDevice().preprocess(graph, workload) for graph in (snapshot, direct)]

        def arrays(run):
            r = run.result
            return [
                r.ordered.src, r.ordered.dst, r.csc.indptr, r.csc.indices,
                r.reindex.edges.src, r.reindex.edges.dst, r.reindex.original_vids,
                r.subgraph_csc.indptr, r.subgraph_csc.indices,
            ]

        for run in runs[1:]:
            assert run.timing.breakdown() == runs[0].timing.breakdown()
            for got, want in zip(arrays(run), arrays(runs[0])):
                assert np.array_equal(got, want)


def _result_arrays(result):
    return [
        result.ordered.src, result.ordered.dst, result.csc.indptr, result.csc.indices,
        result.reindex.edges.src, result.reindex.edges.dst, result.reindex.original_vids,
        result.subgraph_csc.indptr, result.subgraph_csc.indices,
    ]


def _assert_same_results(got, want):
    for a, b in zip(_result_arrays(got), _result_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.ordered.num_nodes == want.ordered.num_nodes == got.csc.num_nodes


@st.composite
def update_streams(draw):
    """A small base graph and a stream of batches: multi-edges, empty batches
    and new vertices that carry ``num_nodes`` across powers of two."""
    num_nodes = draw(st.integers(min_value=1, max_value=20))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    base_edges = draw(st.integers(min_value=0, max_value=40))
    # Endpoints come from a few VIDs, so parallel edges are common.
    hot = max(num_nodes // 3, 1)
    base = COOGraph(
        src=rng.integers(0, hot, size=base_edges),
        dst=rng.integers(0, num_nodes, size=base_edges),
        num_nodes=num_nodes,
    )
    batches = []
    for step in range(draw(st.integers(min_value=1, max_value=5))):
        new_nodes = draw(st.sampled_from([0, 0, 1, 3, 9, 17]))
        size = draw(st.sampled_from([0, 1, 2, 7, 15]))
        total = num_nodes + new_nodes
        src = rng.integers(0, total, size=size)
        dst = rng.integers(0, total, size=size)
        if size and base_edges and draw(st.booleans()):
            # Repeat an edge of the base graph within the batch.
            src[0], dst[0] = base.src[0], base.dst[0]
        batches.append(UpdateBatch(step=step, src=src, dst=dst, new_nodes=new_nodes))
        num_nodes = total
    return base, batches


#: Wall-clock budget of the equivalence sweep: past it, the remaining
#: generated examples return at once, so a slow host cannot stretch the
#: sweep.  The pinned examples always run first.
EQUIVALENCE_BUDGET_SECONDS = 30.0


@pytest.fixture(scope="module")
def equivalence_deadline():
    """The monotonic time at which the equivalence sweep's budget runs out."""
    return time.monotonic() + EQUIVALENCE_BUDGET_SECONDS


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(stream=update_streams())
@example(
    stream=(
        COOGraph(src=np.array([0, 0, 3, 3]), dst=np.array([1, 1, 2, 2]), num_nodes=4),
        [
            UpdateBatch(step=0, src=np.array([0, 0]), dst=np.array([1, 4]), new_nodes=1),
            UpdateBatch(step=1, src=np.empty(0, dtype=VID_DTYPE), dst=np.empty(0, dtype=VID_DTYPE)),
            UpdateBatch(step=2, src=np.array([8, 3]), dst=np.array([2, 8]), new_nodes=4),
            UpdateBatch(step=3, src=np.empty(0, dtype=VID_DTYPE), dst=np.empty(0, dtype=VID_DTYPE), new_nodes=9),
        ],
    )
)
@example(
    stream=(
        COOGraph(src=np.empty(0, dtype=VID_DTYPE), dst=np.empty(0, dtype=VID_DTYPE), num_nodes=1),
        [
            UpdateBatch(step=0, src=np.empty(0, dtype=VID_DTYPE), dst=np.empty(0, dtype=VID_DTYPE)),
            UpdateBatch(step=1, src=np.array([0, 1, 1]), dst=np.array([1, 0, 0]), new_nodes=1),
        ],
    )
)
def test_snapshots_preprocess_as_their_copies(equivalence_deadline, stream):
    """Every snapshot's results and timing, through the device and the
    pipeline, equal those of a plain copy, which has no seeded layout and is
    ordered and reshaped from scratch."""
    if time.monotonic() > equivalence_deadline:
        return
    base, batches = stream
    dynamic = DynamicGraph(graph=base)
    for batch in batches:
        snapshot = dynamic.apply(batch)
        plain = snapshot.copy()
        assert snapshot._ordered is not None and plain._ordered is None
        config = PreprocessingConfig(k=2, num_layers=2, batch_size=4, seed=batch.step)
        device, expected = (
            AutoGNNDevice().preprocess(graph, config) for graph in (snapshot, plain)
        )
        _assert_same_results(device.result, expected.result)
        assert device.timing == expected.timing
        _assert_same_results(preprocess(snapshot, config), preprocess(plain, config))
    assert base._ordered is None


@pytest.fixture(scope="module")
def pointer_deadline():
    """The pointer-array sweep's own budget, so the sweep above cannot use it up."""
    return time.monotonic() + EQUIVALENCE_BUDGET_SECONDS


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(stream=update_streams())
@example(
    stream=(
        COOGraph(src=np.array([0, 1, 2]), dst=np.array([2, 2, 0]), num_nodes=3),
        [
            # Duplicate destinations, one past the old node count, an empty
            # batch that adds vertices, then one into the last new vertex.
            UpdateBatch(step=0, src=np.array([1, 1, 0, 3]), dst=np.array([2, 2, 4, 0]), new_nodes=2),
            UpdateBatch(step=1, src=np.empty(0, dtype=VID_DTYPE), dst=np.empty(0, dtype=VID_DTYPE),
                        new_nodes=3),
            UpdateBatch(step=2, src=np.array([7, 0]), dst=np.array([7, 7])),
        ],
    )
)
def test_merged_pointer_array_is_built_from_the_merged_layout(pointer_deadline, stream):
    """The pointer array ``merge_edge_order`` shifts by the batch equals the
    one built from the merged destinations, new vertices included."""
    if time.monotonic() > pointer_deadline:
        return
    base, batches = stream
    dynamic = DynamicGraph(graph=base)
    for batch in batches:
        layout = dynamic.apply(batch)._ordered
        want = build_pointer_array(layout.dst, layout.num_nodes)
        assert layout._indptr.dtype == want.dtype and np.array_equal(layout._indptr, want)
    # A layout that carries no pointer array merges from a built one.
    ordered = edge_order(base)
    merged = merge_edge_order(ordered, base.src, base.dst, base.num_nodes + 2)
    assert np.array_equal(merged._indptr, build_pointer_array(merged.dst, merged.num_nodes))


class TestInfluence:
    def test_affected_ratio_bounds(self, base):
        ratio = affected_vertex_ratio(base, base.dst[:10], num_layers=1)
        assert 0.0 < ratio <= 1.0

    def test_more_layers_more_influence(self, base):
        seed_dst = base.dst[:5]
        r1 = affected_vertex_ratio(base, seed_dst, num_layers=1)
        r3 = affected_vertex_ratio(base, seed_dst, num_layers=3)
        assert r3 >= r1

    def test_empty_graph(self):
        from repro.graph.coo import COOGraph

        empty = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=0)
        assert affected_vertex_ratio(empty, np.array([], dtype=int), 2) == 0.0

    def test_critical_update_ratio_in_range(self, base):
        ratio = critical_update_ratio(base, num_layers=2, target_fraction=0.5, steps=4)
        assert 0.0 <= ratio <= 0.1

    def test_dense_graph_needs_fewer_updates(self):
        sparse = uniform_random_graph(300, 600, seed=3)
        dense = uniform_random_graph(300, 6000, seed=3)
        r_sparse = critical_update_ratio(sparse, num_layers=2, steps=4)
        r_dense = critical_update_ratio(dense, num_layers=2, steps=4)
        assert r_dense <= r_sparse
