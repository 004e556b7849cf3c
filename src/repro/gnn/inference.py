"""GNN inference: functional forward pass plus an analytic GPU latency model.

Inference always runs on the GPU in the paper's setups; its latency stays
roughly constant across datasets because the sampled subgraph size is bounded
by the batch size, ``k`` and the layer count rather than by the input graph
(Section III-A).  The latency model reflects exactly that: it is driven by the
sampled subgraph's node/edge counts and the model's FLOP estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gnn.embeddings import EmbeddingTable
from repro.gnn.models import MODEL_REGISTRY, GNNModel
from repro.graph.csc import CSCGraph
from repro.graph.reindex import ReindexResult

#: Peak throughput of the inference GPU (RTX 3090 class, FP32).
GPU_PEAK_FLOPS: float = 35.6e12

#: Fraction of peak the sparse-aggregation-heavy GNN workload sustains.
GPU_GNN_EFFICIENCY: float = 0.18

#: Fixed per-batch kernel-launch and framework overhead (seconds).
INFERENCE_FIXED_OVERHEAD: float = 8.0e-3

#: Effective GPU bandwidth for the scattered feature accesses of aggregation.
GPU_GATHER_BANDWIDTH: float = 30e9


@dataclass
class InferenceResult:
    """Output of one inference run.

    Attributes:
        outputs: per-node output features of the final layer (reindexed VIDs).
        latency_seconds: modelled GPU latency of the forward pass.
        flops: estimated multiply-accumulate count.
    """

    outputs: np.ndarray
    latency_seconds: float
    flops: int


@dataclass
class InferenceLatencyModel:
    """Analytic GPU latency model for GNN inference.

    Attributes:
        peak_flops: GPU peak floating-point throughput.
        efficiency: sustained fraction of peak for GNN workloads.
        fixed_overhead: per-batch constant overhead in seconds.
        gather_bandwidth: effective bandwidth of the scattered per-edge feature
            accesses during aggregation (bytes/second).
    """

    peak_flops: float = GPU_PEAK_FLOPS
    efficiency: float = GPU_GNN_EFFICIENCY
    fixed_overhead: float = INFERENCE_FIXED_OVERHEAD
    gather_bandwidth: float = GPU_GATHER_BANDWIDTH

    def latency(self, model: GNNModel, num_nodes: int, num_edges: int) -> float:
        """Latency in seconds for a forward pass over a subgraph of that size.

        The compute term comes from the model's FLOP estimate; the memory term
        charges the scattered feature gathers of aggregation (one feature
        vector per edge per layer plus the initial embedding fetch), which is
        what bounds sparse GNN aggregation on a GPU.
        """
        return self._latency(
            model.flops(num_nodes, num_edges),
            getattr(model, "hidden_dim", 128),
            getattr(model, "num_layers", 2),
            num_nodes,
            num_edges,
        )

    def _latency(
        self, flops: int, dim: int, layers: int, num_nodes: int, num_edges: int
    ) -> float:
        compute = flops / (self.peak_flops * self.efficiency)
        gathered_bytes = 4 * dim * (layers * num_edges + num_nodes)
        memory = gathered_bytes / self.gather_bandwidth
        return self.fixed_overhead + compute + memory

    def latency_from_counts(
        self,
        num_nodes: int,
        num_edges: int,
        hidden_dim: int = 128,
        num_layers: int = 2,
        model_name: str = "graphsage",
    ) -> float:
        """Latency from raw counts: ``latency(build_model(model_name, ...))``
        without building the model's weights."""
        flops = MODEL_REGISTRY[model_name.lower()].count_flops(
            num_nodes, num_edges, hidden_dim, hidden_dim, num_layers
        )
        return self._latency(flops, hidden_dim, num_layers, num_nodes, num_edges)


class InferenceEngine:
    """Runs the functional forward pass and reports modelled latency."""

    def __init__(
        self,
        model: GNNModel,
        latency_model: Optional[InferenceLatencyModel] = None,
    ) -> None:
        self.model = model
        self.latency_model = latency_model or InferenceLatencyModel()

    def run(
        self,
        subgraph: CSCGraph,
        embeddings: EmbeddingTable,
        reindex: Optional[ReindexResult] = None,
    ) -> InferenceResult:
        """Execute inference on a (reindexed) subgraph.

        When ``reindex`` is provided, the embedding rows of the sampled
        vertices are gathered first so the feature matrix lines up with the
        subgraph's compact VIDs.
        """
        if reindex is not None:
            table = embeddings.gather_subgraph(reindex)
        else:
            table = embeddings
        features = table.features
        if features.shape[0] < subgraph.num_nodes:
            # Pad with zeros for isolated vertices introduced by conversion.
            pad = np.zeros((subgraph.num_nodes - features.shape[0], features.shape[1]))
            features = np.vstack([features, pad])
        elif features.shape[0] > subgraph.num_nodes:
            features = features[: subgraph.num_nodes]
        outputs = self.model.forward(subgraph, features)
        flops = self.model.flops(subgraph.num_nodes, subgraph.num_edges)
        latency = self.latency_model.latency(self.model, subgraph.num_nodes, subgraph.num_edges)
        return InferenceResult(outputs=outputs, latency_seconds=latency, flops=flops)

    def estimate_latency(self, num_nodes: int, num_edges: int) -> float:
        """Latency estimate without running the forward pass."""
        return self.latency_model.latency(self.model, num_nodes, num_edges)
