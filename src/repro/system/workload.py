"""Workload profiles: everything a performance model needs to know about a run.

A :class:`WorkloadProfile` captures the graph characteristics (node/edge count,
average degree), the GNN hyper-parameters (layers, ``k``, batch size, feature
dimensionality) and the serving context (fraction of the graph updated since
the previous pass).  Profiles can be built from the Table II dataset registry
at full paper scale — which is how the headline benchmarks reproduce the
paper's figures — or from an in-memory synthetic graph.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from repro.core.cost_model import WorkloadParams, per_seed_subgraph_nodes, total_selections
from repro.graph.coo import COOGraph
from repro.graph.datasets import DATASETS, DatasetInfo

#: Bytes per stored edge (two 32-bit VIDs).
BYTES_PER_EDGE: int = 8

#: Bytes per feature element (FP32).
BYTES_PER_FEATURE: int = 4

#: Quality tiers a request can be served at.  ``QUALITY_FULL`` is the
#: as-submitted profile; ``QUALITY_DEGRADED`` marks a profile produced by
#: :meth:`WorkloadProfile.degrade` (fewer sampled neighbours / shallower
#: model) that trades answer quality for latency under overload.
QUALITY_FULL: str = "full"
QUALITY_DEGRADED: str = "degraded"

QUALITY_TIERS = (QUALITY_FULL, QUALITY_DEGRADED)


def check_count(name: str, value, minimum: int) -> None:
    """Reject ``value`` unless it is an integer >= ``minimum``.

    Floats are refused, NaN and ``1.5`` included: a count ends up as a
    profile's ``k`` or ``num_layers``, or as a slice bound.  So are bools.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def check_degradation(k_factor: float, min_k: int, layer_drop: int, min_layers: int) -> None:
    """Reject knobs :meth:`WorkloadProfile.degrade` cannot apply."""
    if not 0.0 < k_factor <= 1.0:
        raise ValueError(f"k_factor must be in (0, 1], got {k_factor}")
    check_count("min_k", min_k, 1)
    check_count("layer_drop", layer_drop, 0)
    check_count("min_layers", min_layers, 1)


@dataclass(frozen=True)
class WorkloadProfile:
    """One GNN serving workload.

    Attributes:
        name: dataset or scenario name.
        num_nodes: graph node count.
        num_edges: graph edge count.
        avg_degree: average in-degree.
        num_layers: GNN layer count (sampling hops).
        k: neighbours sampled per node.
        batch_size: inference batch (seed) node count.
        feature_dim: embedding dimensionality.
        update_fraction: fraction of edges that changed since the last
            preprocessing pass (drives incremental-transfer savings).
        model_name: GNN model used for inference.
        quality: service tier this profile executes at (``QUALITY_FULL``
            unless derived through :meth:`degrade`).
    """

    name: str
    num_nodes: int
    num_edges: int
    avg_degree: float
    num_layers: int = 2
    k: int = 10
    batch_size: int = 3000
    feature_dim: int = 128
    update_fraction: float = 0.01
    model_name: str = "graphsage"
    quality: str = QUALITY_FULL

    def __post_init__(self) -> None:
        if self.quality not in QUALITY_TIERS:
            raise ValueError(f"quality must be one of {QUALITY_TIERS}, got {self.quality!r}")

    # ------------------------------------------------------------ quantities
    # The selection counts are read a few dozen times per priced pass, so
    # they are built once per profile, as :attr:`batch_key` is.
    @cached_property
    def total_selections(self) -> int:
        """Total node selections across all hops (geometric series incl. batch)."""
        return total_selections(self.batch_size, self.k, self.num_layers)

    @cached_property
    def sampled_edges(self) -> int:
        """Edges in the sampled subgraph (one per non-batch selection)."""
        return max(self.total_selections - self.batch_size, 0)

    @cached_property
    def sampled_nodes(self) -> int:
        """Distinct vertices in the sampled subgraph (bounded by the graph)."""
        return min(self.total_selections, self.num_nodes) if self.num_nodes else self.total_selections

    @cached_property
    def per_seed_subgraph_nodes(self) -> int:
        """Distinct vertices of one batch node's sampled neighbourhood."""
        return per_seed_subgraph_nodes(self.k, self.num_layers, self.num_nodes)

    @property
    def graph_bytes(self) -> int:
        """Size of the COO edge array in bytes."""
        return self.num_edges * BYTES_PER_EDGE

    @property
    def update_bytes(self) -> int:
        """Size of the incremental graph update in bytes."""
        return int(self.graph_bytes * self.update_fraction)

    @property
    def csc_bytes(self) -> int:
        """Size of the converted CSC (pointer + index arrays) in bytes."""
        return self.num_edges * BYTES_PER_EDGE // 2 + (self.num_nodes + 1) * 8

    @property
    def subgraph_bytes(self) -> int:
        """Size of the sampled subgraph plus its gathered embeddings in bytes."""
        edges = self.sampled_edges * BYTES_PER_EDGE
        features = self.sampled_nodes * self.feature_dim * BYTES_PER_FEATURE
        return edges + features

    # ----------------------------------------------------------- conversions
    def to_cost_params(self) -> WorkloadParams:
        """Convert to the cost-model parameter object (Table I inputs)."""
        return WorkloadParams(
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            num_layers=self.num_layers,
            k=self.k,
            batch_size=self.batch_size,
        )

    def with_updates(self, update_fraction: float) -> "WorkloadProfile":
        """Copy with a different incremental-update fraction."""
        return replace(self, update_fraction=update_fraction)

    def with_batch_size(self, batch_size: int) -> "WorkloadProfile":
        """Copy with a different seed-batch size (used by request batching)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return replace(self, batch_size=batch_size)

    @cached_property
    def batch_key(self) -> tuple:
        """Key under which requests can share one batched preprocessing pass.

        Two workloads are batch-compatible when they agree on everything
        except ``batch_size``: their seed sets can then be concatenated and
        preprocessed together, with the merged pass priced at the summed
        batch size.  Built once per profile: the cached value lives in the
        instance ``__dict__``, which the frozen dataclass's ``asdict``,
        ``==``, ``hash`` and ``replace`` never read.
        """
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.avg_degree,
            self.num_layers,
            self.k,
            self.feature_dim,
            self.update_fraction,
            self.model_name,
            self.quality,
        )

    def degrade(
        self,
        k_factor: float = 0.5,
        min_k: int = 1,
        layer_drop: int = 0,
        min_layers: int = 1,
    ) -> "WorkloadProfile":
        """Cheaper execution profile for the same request (degraded tier).

        Samples fewer neighbours per hop (``k`` scaled by ``k_factor``, never
        below ``min_k``) and optionally drops sampling hops (``layer_drop``,
        never below ``min_layers``).  The result carries
        ``quality=QUALITY_DEGRADED`` — part of :attr:`batch_key` — so degraded
        requests form their own batches and are priced at their own (cheaper)
        cost.  The ``name`` is unchanged: SLO/quota policies resolve degraded
        requests exactly like their full-quality originals.
        """
        check_degradation(k_factor, min_k, layer_drop, min_layers)
        return replace(
            self,
            k=max(min(min_k, self.k), int(self.k * k_factor)),
            num_layers=max(min(min_layers, self.num_layers), self.num_layers - layer_drop),
            quality=QUALITY_DEGRADED,
        )

    def scaled_edges(self, factor: float) -> "WorkloadProfile":
        """Copy with the edge count (and node count) scaled by ``factor``."""
        return replace(
            self,
            num_edges=max(int(self.num_edges * factor), 1),
            num_nodes=max(int(self.num_nodes * factor), 1),
        )

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_dataset(
        cls,
        key: str,
        num_layers: int = 2,
        k: int = 10,
        batch_size: int = 3000,
        feature_dim: int = 128,
        update_fraction: float = 0.01,
        model_name: str = "graphsage",
    ) -> "WorkloadProfile":
        """Full-paper-scale profile for one of the Table II datasets."""
        info: DatasetInfo = DATASETS[key]
        return cls(
            name=key,
            num_nodes=info.num_nodes,
            num_edges=info.num_edges,
            avg_degree=info.avg_degree,
            num_layers=num_layers,
            k=k,
            batch_size=batch_size,
            feature_dim=feature_dim,
            update_fraction=update_fraction,
            model_name=model_name,
        )

    @classmethod
    def from_graph(
        cls,
        graph: COOGraph,
        num_layers: int = 2,
        k: int = 10,
        batch_size: int = 3000,
        feature_dim: int = 128,
        update_fraction: float = 0.01,
        model_name: str = "graphsage",
        name: Optional[str] = None,
    ) -> "WorkloadProfile":
        """Profile describing an in-memory graph."""
        return cls(
            name=name or graph.name or "graph",
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            avg_degree=graph.avg_degree,
            num_layers=num_layers,
            k=k,
            batch_size=min(batch_size, max(graph.num_nodes, 1)),
            feature_dim=feature_dim,
            update_fraction=update_fraction,
            model_name=model_name,
        )
