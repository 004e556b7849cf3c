"""End-to-end reference preprocessing pipeline.

The pipeline mirrors Fig. 14 of the paper: edge ordering -> data reshaping ->
unique random selection -> subgraph reindexing -> (edge ordering + reshaping
of the sampled subgraph) producing the final CSC the GNN consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph
from repro.graph.convert import coo_to_csc
from repro.graph.reindex import ReindexResult
from repro.graph.sampling import MODE_VECTORIZED, SampledSubgraph, check_mode
from repro.preprocessing.tasks import (
    DataReshapingTask,
    EdgeOrderingTask,
    SubgraphReindexingTask,
    TaskKind,
    UniqueRandomSelectionTask,
)


@dataclass(frozen=True)
class PreprocessingConfig:
    """Workload parameters of a preprocessing run.

    Attributes:
        k: neighbours sampled per node (paper default 10).
        num_layers: GNN layer count / sampling hops (paper default 2).
        batch_size: number of inference (batch) nodes (paper default 3000).
        sampling_strategy: ``"node"`` (GraphSAGE-style) or ``"layer"``.
        seed: RNG seed used for the random selections.
        mode: functional execution path — ``"vectorized"`` (fast path, the
            default) or ``"reference"`` (per-element verification loops);
            both produce bit-identical results and identical cycle counts.
            The pipeline and the device both read it; nothing above the
            config chooses the path.
    """

    k: int = 10
    num_layers: int = 2
    batch_size: int = 3000
    sampling_strategy: str = "node"
    seed: int = 0
    mode: str = MODE_VECTORIZED

    def __post_init__(self) -> None:
        check_mode(self.mode)


@dataclass
class PreprocessingResult:
    """Everything the pipeline produced, one field per paper task.

    Attributes:
        ordered: the destination-sorted COO of the full graph.
        csc: the CSC conversion of the full graph.
        sample: the sampled multi-hop neighbourhood (original VIDs).
        reindex: the reindexed subgraph (compact VIDs) with its mapping.
        subgraph_csc: the CSC of the reindexed subgraph fed to inference.
        stats: per-task work counters collected along the way.
    """

    ordered: COOGraph
    csc: CSCGraph
    sample: SampledSubgraph
    reindex: ReindexResult
    subgraph_csc: CSCGraph
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def num_sampled_nodes(self) -> int:
        """Distinct vertices in the final subgraph."""
        return self.reindex.num_sampled_nodes

    @property
    def num_sampled_edges(self) -> int:
        """Edges in the final subgraph."""
        return self.reindex.edges.num_edges


class PreprocessingPipeline:
    """Composable reference pipeline executing the four tasks in order."""

    def __init__(self, config: Optional[PreprocessingConfig] = None) -> None:
        self.config = config or PreprocessingConfig()
        self._ordering = EdgeOrderingTask()
        self._reshaping = DataReshapingTask()
        self._selecting = UniqueRandomSelectionTask(
            strategy=self.config.sampling_strategy, mode=self.config.mode
        )
        self._reindexing = SubgraphReindexingTask(mode=self.config.mode)

    def choose_batch_nodes(self, graph: COOGraph) -> np.ndarray:
        """Pick the batch (seed) nodes for sampling, capped at the node count."""
        rng = np.random.default_rng(self.config.seed)
        size = min(self.config.batch_size, max(graph.num_nodes, 1))
        if graph.num_nodes == 0:
            return np.empty(0, dtype=VID_DTYPE)
        return rng.choice(graph.num_nodes, size=size, replace=False).astype(VID_DTYPE)

    def run(
        self, graph: COOGraph, batch_nodes: Optional[Sequence[int]] = None
    ) -> PreprocessingResult:
        """Execute the full preprocessing workflow on ``graph``."""
        cfg = self.config
        stats: Dict[str, Dict[str, float]] = {}

        ordering_res = self._ordering.run(graph)
        stats[TaskKind.ORDERING.value] = ordering_res.stats
        ordered: COOGraph = ordering_res.payload

        reshaping_res = self._reshaping.run(ordered)
        stats[TaskKind.RESHAPING.value] = reshaping_res.stats
        csc: CSCGraph = reshaping_res.payload

        if batch_nodes is None:
            batch_nodes = self.choose_batch_nodes(graph)
        selecting_res = self._selecting.run(
            csc, batch_nodes, cfg.k, cfg.num_layers, seed=cfg.seed
        )
        stats[TaskKind.SELECTING.value] = selecting_res.stats
        sample: SampledSubgraph = selecting_res.payload

        reindex_res = self._reindexing.run(sample)
        stats[TaskKind.REINDEXING.value] = reindex_res.stats
        reindex: ReindexResult = reindex_res.payload

        # The sampled subgraph is re-converted to CSC for the GNN (Section II-B:
        # reindexing outputs COO, which then undergoes ordering + reshaping).
        subgraph_csc = coo_to_csc(reindex.edges)

        return PreprocessingResult(
            ordered=ordered,
            csc=csc,
            sample=sample,
            reindex=reindex,
            subgraph_csc=subgraph_csc,
            stats=stats,
        )


def preprocess(
    graph: COOGraph,
    k: int = 10,
    num_layers: int = 2,
    batch_size: int = 3000,
    sampling_strategy: str = "node",
    seed: int = 0,
    batch_nodes: Optional[Sequence[int]] = None,
    mode: str = MODE_VECTORIZED,
) -> PreprocessingResult:
    """One-call convenience wrapper around :class:`PreprocessingPipeline`."""
    config = PreprocessingConfig(
        k=k,
        num_layers=num_layers,
        batch_size=batch_size,
        sampling_strategy=sampling_strategy,
        seed=seed,
        mode=mode,
    )
    return PreprocessingPipeline(config).run(graph, batch_nodes=batch_nodes)
