"""The four GNN models the paper evaluates (Fig. 25a).

Each model implements a layered aggregation-transformation forward pass over a
CSC subgraph.  The models also expose a FLOP estimate per layer that the
inference-latency model consumes; the relative computational intensity
ordering (GIN < GraphSAGE < GCN < GAT) follows the paper.
"""

from __future__ import annotations

from typing import Dict, List, Type

import numpy as np

from repro.gnn.layers import (
    LinearTransform,
    MLPTransform,
    attention_aggregate,
    mean_aggregate,
    sum_aggregate,
)
from repro.graph.csc import CSCGraph


class GNNModel:
    """Base class: a stack of aggregation-transformation layers.

    Args:
        in_dim: input embedding dimensionality.
        hidden_dim: hidden feature dimensionality of every layer.
        num_layers: number of GNN layers (hops).
        seed: weight-initialisation seed.
    """

    #: Relative aggregation cost per edge (multiplier on ``dim`` FLOPs).
    aggregation_cost: float = 1.0

    name: str = "base"

    def __init__(self, in_dim: int = 128, hidden_dim: int = 128, num_layers: int = 2, seed: int = 0) -> None:
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.seed = seed
        self.transforms: List[LinearTransform] = []
        dims = [in_dim] + [hidden_dim] * num_layers
        for layer in range(num_layers):
            self.transforms.append(
                LinearTransform.random(dims[layer], dims[layer + 1], seed=seed + layer)
            )

    # ------------------------------------------------------------ interface
    def aggregate(self, graph: CSCGraph, features: np.ndarray, layer: int) -> np.ndarray:
        """Aggregate neighbour features for one layer (model specific)."""
        raise NotImplementedError

    def transform(self, aggregated: np.ndarray, layer: int) -> np.ndarray:
        """Transform the aggregated features of one layer."""
        return self.transforms[layer](aggregated)

    def forward(self, graph: CSCGraph, features: np.ndarray) -> np.ndarray:
        """Run the layered forward pass and return per-node output features."""
        h = np.asarray(features, dtype=np.float64)
        for layer in range(self.num_layers):
            agg = self.aggregate(graph, h, layer)
            h = self.transform(agg, layer)
        return h

    # ----------------------------------------------------------------- cost
    @classmethod
    def count_flops(
        cls, num_nodes: int, num_edges: int, in_dim: int, hidden_dim: int, num_layers: int
    ) -> int:
        """Approximate multiply-accumulate count of one forward pass.

        Depends only on the model class and its dimensions, so the inference
        latency model prices a model by name without building its weights.
        """
        total = 0
        dims = [in_dim] + [hidden_dim] * num_layers
        for layer in range(num_layers):
            # Aggregation: every edge moves/combines a dim-wide vector.
            total += int(cls.aggregation_cost * num_edges * dims[layer] * 2)
            # Transformation: dense matmul per node.
            total += 2 * num_nodes * dims[layer] * dims[layer + 1]
        return total

    def flops(self, num_nodes: int, num_edges: int) -> int:
        """Approximate multiply-accumulate count of one forward pass."""
        return self.count_flops(
            num_nodes, num_edges, self.in_dim, self.hidden_dim, self.num_layers
        )


class GraphSAGE(GNNModel):
    """GraphSAGE with mean aggregation (the paper's default model)."""

    name = "graphsage"
    aggregation_cost = 1.5  # mean aggregation plus self-feature concatenation

    def __init__(self, in_dim: int = 128, hidden_dim: int = 128, num_layers: int = 2, seed: int = 0) -> None:
        super().__init__(in_dim, hidden_dim, num_layers, seed)
        # GraphSAGE concatenates the self feature with the aggregate, so the
        # transforms take 2x-wide inputs.
        dims = [in_dim] + [hidden_dim] * num_layers
        self.transforms = [
            LinearTransform.random(2 * dims[layer], dims[layer + 1], seed=seed + layer)
            for layer in range(num_layers)
        ]

    def aggregate(self, graph: CSCGraph, features: np.ndarray, layer: int) -> np.ndarray:
        neigh = mean_aggregate(graph, features)
        return np.concatenate([features, neigh], axis=1)


class GCN(GNNModel):
    """Graph convolutional network with symmetric-normalised mean aggregation."""

    name = "gcn"
    aggregation_cost = 2.0

    def aggregate(self, graph: CSCGraph, features: np.ndarray, layer: int) -> np.ndarray:
        degrees = np.maximum(graph.in_degrees().astype(np.float64), 1.0)
        norm = 1.0 / np.sqrt(degrees)
        scaled = features * norm[: features.shape[0], None] if features.shape[0] == graph.num_nodes else features
        agg = mean_aggregate(graph, scaled)
        return agg * norm[:, None]


class GAT(GNNModel):
    """Graph attention network with single-head additive attention."""

    name = "gat"
    aggregation_cost = 4.0

    def __init__(self, in_dim: int = 128, hidden_dim: int = 128, num_layers: int = 2, seed: int = 0) -> None:
        super().__init__(in_dim, hidden_dim, num_layers, seed)
        rng = np.random.default_rng(seed + 1000)
        dims = [in_dim] + [hidden_dim] * num_layers
        self._attn_src = [rng.normal(0, 0.1, size=dims[layer]) for layer in range(num_layers)]
        self._attn_dst = [rng.normal(0, 0.1, size=dims[layer]) for layer in range(num_layers)]

    def aggregate(self, graph: CSCGraph, features: np.ndarray, layer: int) -> np.ndarray:
        attn_src = features @ self._attn_src[layer]
        attn_dst = features @ self._attn_dst[layer]
        return attention_aggregate(graph, features, attn_src, attn_dst)


class GIN(GNNModel):
    """Graph isomorphism network with sum aggregation and an MLP transform."""

    name = "gin"
    aggregation_cost = 1.0

    def __init__(self, in_dim: int = 128, hidden_dim: int = 128, num_layers: int = 2, seed: int = 0) -> None:
        super().__init__(in_dim, hidden_dim, num_layers, seed)
        dims = [in_dim] + [hidden_dim] * num_layers
        self.mlps = [
            MLPTransform.random(dims[layer], dims[layer + 1], dims[layer + 1], seed=seed + layer)
            for layer in range(num_layers)
        ]
        self.epsilon = 0.0

    def aggregate(self, graph: CSCGraph, features: np.ndarray, layer: int) -> np.ndarray:
        return (1.0 + self.epsilon) * features + sum_aggregate(graph, features)

    def transform(self, aggregated: np.ndarray, layer: int) -> np.ndarray:
        return self.mlps[layer](aggregated)


#: Models keyed by name, ordered by ascending computational intensity as in
#: the paper's sensitivity study.
MODEL_REGISTRY: Dict[str, Type[GNNModel]] = {
    "gin": GIN,
    "graphsage": GraphSAGE,
    "gcn": GCN,
    "gat": GAT,
}


def build_model(
    name: str, in_dim: int = 128, hidden_dim: int = 128, num_layers: int = 2, seed: int = 0
) -> GNNModel:
    """Instantiate a model by name; raises ``KeyError`` for unknown names."""
    cls = MODEL_REGISTRY[name.lower()]
    return cls(in_dim=in_dim, hidden_dim=hidden_dim, num_layers=num_layers, seed=seed)
