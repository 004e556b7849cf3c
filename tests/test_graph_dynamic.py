"""Tests for dynamic graphs and update streams."""

from dataclasses import replace

import numpy as np
import pytest

from repro.graph.dynamic import (
    DAILY_GROWTH_RATE,
    DynamicGraph,
    GraphUpdateStream,
    UpdateBatch,
    affected_vertex_ratio,
    critical_update_ratio,
)
from repro.core.accelerator import AutoGNNDevice
from repro.graph.coo import COOGraph
from repro.graph.generators import uniform_random_graph
from repro.graph.sampling import MODE_REFERENCE, MODE_VECTORIZED
from repro.preprocessing.pipeline import PreprocessingConfig


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
        runs = [
            AutoGNNDevice().preprocess(graph, replace(workload, mode=mode))
            for mode in (MODE_VECTORIZED, MODE_REFERENCE)
            for graph in (snapshot, direct)
        ]

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
