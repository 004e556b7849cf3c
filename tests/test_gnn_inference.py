"""Tests for the inference engine and its latency model."""

import numpy as np
import pytest

from repro.core.accelerator import AutoGNNDevice
from repro.core.config import HardwareConfig
from repro.gnn.embeddings import EmbeddingTable
from repro.gnn.inference import InferenceEngine, InferenceLatencyModel
from repro.gnn.models import MODEL_REGISTRY, GraphSAGE, build_model
from repro.graph.convert import coo_to_csc
from repro.preprocessing.pipeline import PreprocessingConfig


class TestLatencyModel:
    def test_monotone_in_subgraph_size(self):
        model = InferenceLatencyModel()
        sage = GraphSAGE(in_dim=64, hidden_dim=64)
        assert model.latency(sage, 100, 1000) < model.latency(sage, 10_000, 100_000)

    def test_fixed_overhead_floor(self):
        model = InferenceLatencyModel(fixed_overhead=0.005)
        sage = GraphSAGE(in_dim=8, hidden_dim=8)
        assert model.latency(sage, 1, 1) >= 0.005

    def test_latency_from_counts_by_model(self):
        model = InferenceLatencyModel()
        gat = model.latency_from_counts(1000, 10_000, model_name="gat")
        gin = model.latency_from_counts(1000, 10_000, model_name="gin")
        assert gat > gin

    def test_more_layers_cost_more(self):
        model = InferenceLatencyModel()
        two = model.latency_from_counts(1000, 10_000, num_layers=2)
        six = model.latency_from_counts(1000, 10_000, num_layers=6)
        assert six > two

    @pytest.mark.parametrize("dim", [64, 128])
    @pytest.mark.parametrize("num_layers", [1, 2, 3, 6])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_latency_from_counts_matches_built_model(self, name, num_layers, dim):
        """The weight-free count prices a model exactly as the built one."""
        model = InferenceLatencyModel()
        built = build_model(name, in_dim=dim, hidden_dim=dim, num_layers=num_layers)
        for num_nodes, num_edges in [(1, 0), (1000, 10_000), (314_159, 2_718_281)]:
            assert model.latency_from_counts(
                num_nodes, num_edges, hidden_dim=dim, num_layers=num_layers,
                model_name=name.upper(),
            ) == model.latency(built, num_nodes, num_edges)


class TestInferenceEngine:
    def test_runs_on_preprocessed_subgraph(self, medium_graph):
        device = AutoGNNDevice(HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64))
        out = device.preprocess(medium_graph, PreprocessingConfig(batch_size=8, k=3, num_layers=2))
        embeddings = EmbeddingTable.random(medium_graph.num_nodes, dim=16, seed=1)
        engine = InferenceEngine(build_model("graphsage", in_dim=16, hidden_dim=16))
        result = engine.run(out.result.subgraph_csc, embeddings, reindex=out.result.reindex)
        assert result.outputs.shape[0] == out.result.subgraph_csc.num_nodes
        assert np.all(np.isfinite(result.outputs))
        assert result.latency_seconds > 0
        assert result.flops > 0

    def test_run_without_reindex(self, small_graph):
        csc = coo_to_csc(small_graph)
        embeddings = EmbeddingTable.random(small_graph.num_nodes, dim=8)
        engine = InferenceEngine(build_model("gcn", in_dim=8, hidden_dim=8))
        result = engine.run(csc, embeddings)
        assert result.outputs.shape == (csc.num_nodes, 8)

    def test_feature_padding_for_extra_nodes(self, small_graph):
        csc = coo_to_csc(small_graph)
        short = EmbeddingTable.random(small_graph.num_nodes - 5, dim=8)
        engine = InferenceEngine(build_model("gin", in_dim=8, hidden_dim=8))
        result = engine.run(csc, short)
        assert result.outputs.shape[0] == csc.num_nodes

    def test_estimate_latency(self):
        engine = InferenceEngine(build_model("graphsage", in_dim=8, hidden_dim=8))
        assert engine.estimate_latency(100, 500) > 0
