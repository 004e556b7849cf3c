"""Graph substrate: containers, conversion, datasets, sampling, dynamics.

This package provides the pure-software graph layer that every other part of
the reproduction builds on: COO and CSC containers, reference conversion
between them, the synthetic dataset registry matching Table II of the paper,
neighbour sampling and subgraph reindexing references, and the dynamic-graph
update streams used by the time-series experiments (Figs. 7, 28-31).
"""

from repro.graph.coo import COOGraph
from repro.graph.csc import CSCGraph
from repro.graph.convert import coo_to_csc, csc_to_coo, edge_order, build_pointer_array
from repro.graph.generators import (
    power_law_graph,
    uniform_random_graph,
    GraphSpec,
)
from repro.graph.datasets import (
    DatasetInfo,
    DATASETS,
    DATASET_ORDER,
    load_dataset,
    dataset_table,
)
from repro.graph.sampling import (
    node_wise_sample,
    SampledSubgraph,
    SelectionStats,
)
from repro.graph.reindex import reindex_subgraph, ReindexResult
from repro.graph.dynamic import DynamicGraph, GraphUpdateStream, UpdateBatch

__all__ = [
    "COOGraph",
    "CSCGraph",
    "coo_to_csc",
    "csc_to_coo",
    "edge_order",
    "build_pointer_array",
    "power_law_graph",
    "uniform_random_graph",
    "GraphSpec",
    "DatasetInfo",
    "DATASETS",
    "DATASET_ORDER",
    "load_dataset",
    "dataset_table",
    "node_wise_sample",
    "SampledSubgraph",
    "SelectionStats",
    "reindex_subgraph",
    "ReindexResult",
    "DynamicGraph",
    "GraphUpdateStream",
    "UpdateBatch",
]
