"""The functional preprocessing workflow of Fig. 14, as plain functions.

Edge ordering -> data reshaping -> unique random selection -> subgraph
reindexing -> (edge ordering + reshaping of the sampled subgraph) producing
the final CSC the GNN consumes.  Selection is node-wise
(:func:`~repro.graph.sampling.node_wise_sample`), the one strategy the
device runs.  :func:`preprocess` is the software reference the AutoGNN
device (``AutoGNNDevice.preprocess``, same signature) and the baselines are
verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph
from repro.graph.convert import coo_to_csc, csc_from_ordered, edge_order
from repro.graph.reindex import ReindexResult, reindex_subgraph
from repro.graph.sampling import SampledSubgraph, node_wise_sample


@dataclass(frozen=True)
class PreprocessingConfig:
    """Workload parameters of a preprocessing run.

    Attributes:
        k: neighbours sampled per node (paper default 10).
        num_layers: GNN layer count / sampling hops (paper default 2).
        batch_size: number of inference (batch) nodes (paper default 3000).
        seed: RNG seed used for the random selections.
    """

    k: int = 10
    num_layers: int = 2
    batch_size: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k", "num_layers", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"PreprocessingConfig.{name} must be >= 1, got {value}")


@dataclass
class PreprocessingResult:
    """Everything the workflow produced, one field per paper task.

    Attributes:
        ordered: the destination-sorted COO of the full graph.
        csc: the CSC conversion of the full graph.
        sample: the sampled multi-hop neighbourhood (original VIDs).
        reindex: the reindexed subgraph (compact VIDs) with its mapping.
        subgraph_csc: the CSC of the reindexed subgraph fed to inference.
    """

    ordered: COOGraph
    csc: CSCGraph
    sample: SampledSubgraph
    reindex: ReindexResult
    subgraph_csc: CSCGraph

    @property
    def num_sampled_nodes(self) -> int:
        """Distinct vertices in the final subgraph."""
        return self.reindex.num_sampled_nodes

    @property
    def num_sampled_edges(self) -> int:
        """Edges in the final subgraph."""
        return self.reindex.edges.num_edges


def choose_batch_nodes(graph: COOGraph, config: PreprocessingConfig) -> np.ndarray:
    """The batch (seed) nodes of a run: distinct, capped at the node count."""
    if graph.num_nodes == 0:
        return np.empty(0, dtype=VID_DTYPE)
    rng = np.random.default_rng(config.seed)
    size = min(config.batch_size, graph.num_nodes)
    return rng.choice(graph.num_nodes, size=size, replace=False).astype(VID_DTYPE)


def preprocess(
    graph: COOGraph,
    config: Optional[PreprocessingConfig] = None,
    batch_nodes: Optional[Sequence[int]] = None,
) -> PreprocessingResult:
    """Run the full preprocessing workflow of Fig. 14 on ``graph``.

    ``batch_nodes`` defaults to :func:`choose_batch_nodes`' draw.
    """
    config = config or PreprocessingConfig()
    ordered = edge_order(graph)
    csc = csc_from_ordered(ordered)
    if batch_nodes is None:
        batch_nodes = choose_batch_nodes(graph, config)
    sample = node_wise_sample(csc, batch_nodes, config.k, config.num_layers, seed=config.seed)
    reindex = reindex_subgraph(sample)
    # The sampled subgraph is re-converted to CSC for the GNN (Section II-B:
    # reindexing outputs COO, which then undergoes ordering + reshaping).
    return PreprocessingResult(
        ordered=ordered,
        csc=csc,
        sample=sample,
        reindex=reindex,
        subgraph_csc=coo_to_csc(reindex.edges),
    )
