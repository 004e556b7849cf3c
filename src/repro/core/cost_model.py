"""Analytic cost model of GNN preprocessing on AutoGNN (Table I).

The host-side software evaluates these closed-form cycle estimates for every
pre-compiled bitstream and picks the configuration with the lowest end-to-end
estimate (Section V-B).  The formulas are parameterised by the hardware
(UPE/SCR count and width) and the workload (graph size and GNN
hyperparameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

import numpy as np

from repro.core.config import HardwareConfig, KERNEL_CLOCK_HZ
from repro.core import merge
from repro.core.kernels import reindexing_cycle_estimate


def total_selections(batch_size: int, k: int, num_layers: int) -> int:
    """Total node selections ``s`` over all hops, the batch nodes included.

    Table I writes ``s = b * k^(l+1) - 1``; we interpret it as the
    geometric series ``b * (k^(l+1) - 1) / (k - 1)`` (the total number of
    nodes drawn over all hops including the batch nodes), which is the
    quantity the selection hardware actually iterates over.
    """
    if k <= 1:
        return batch_size * (num_layers + 1)
    return int(batch_size * (k ** (num_layers + 1) - 1) // (k - 1))


def per_seed_subgraph_nodes(k: int, num_layers: int, num_nodes: int) -> int:
    """Distinct vertices of one batch node's sampled neighbourhood.

    One seed's share of :func:`total_selections`, capped at the graph's
    node count (uncapped when ``num_nodes`` is 0).  The reindexer renumbers
    each seed's neighbourhood against its own mapping, so this bounds the
    SRAM occupancy per reindexing pass.
    """
    per_seed = total_selections(1, k, num_layers)
    return int(min(per_seed, num_nodes)) if num_nodes else per_seed


@dataclass(frozen=True)
class WorkloadParams:
    """Workload-side parameters of the cost model.

    Attributes:
        num_nodes: graph node count ``n``.
        num_edges: graph edge count ``e``.
        num_layers: GNN layer count ``l``.
        k: neighbours sampled per node.
        batch_size: number of batch (seed) nodes ``b``.
    """

    num_nodes: int
    num_edges: int
    num_layers: int = 2
    k: int = 10
    batch_size: int = 3000

    @property
    def total_selections(self) -> int:
        """Total node selections ``s`` (:func:`total_selections`)."""
        return total_selections(self.batch_size, self.k, self.num_layers)

    @property
    def per_seed_subgraph_nodes(self) -> int:
        """One seed's neighbourhood size (:func:`per_seed_subgraph_nodes`)."""
        return per_seed_subgraph_nodes(self.k, self.num_layers, self.num_nodes)

    @classmethod
    def from_graph(
        cls,
        graph,
        num_layers: int = 2,
        k: int = 10,
        batch_size: int = 3000,
    ) -> "WorkloadParams":
        """Build workload parameters from any graph exposing node/edge counts."""
        return cls(
            num_nodes=int(graph.num_nodes),
            num_edges=int(graph.num_edges),
            num_layers=num_layers,
            k=k,
            batch_size=batch_size,
        )


@dataclass(frozen=True)
class CostEstimate:
    """Cycle estimates per preprocessing task for one hardware configuration."""

    ordering_cycles: float
    selecting_cycles: float
    reshaping_cycles: float
    reindexing_cycles: float
    config: HardwareConfig

    @property
    def total_cycles(self) -> float:
        """Total estimated preprocessing cycles."""
        return (
            self.ordering_cycles
            + self.selecting_cycles
            + self.reshaping_cycles
            + self.reindexing_cycles
        )

    def latency_seconds(self, clock_hz: float = KERNEL_CLOCK_HZ) -> float:
        """Convert the total cycle estimate to seconds at ``clock_hz``."""
        return self.total_cycles / clock_hz

    def breakdown(self) -> Dict[str, float]:
        """Per-task cycle estimates keyed by the paper's task names."""
        return {
            "ordering": self.ordering_cycles,
            "selecting": self.selecting_cycles,
            "reshaping": self.reshaping_cycles,
            "reindexing": self.reindexing_cycles,
        }


class CandidateTable:
    """Candidate configurations as one configuration whose fields are columns.

    ``num_upes``, ``upe_width``, ``num_scrs`` and ``scr_width`` are int64
    arrays, one entry per candidate, so every Table I term of
    :class:`CostModel` evaluates the whole table with the same expression
    that evaluates one :class:`~repro.core.config.HardwareConfig`.

    Attributes:
        configs: the candidates, in the order ties are broken by.
    """

    def __init__(self, configs: Iterable[HardwareConfig]) -> None:
        self.configs: Tuple[HardwareConfig, ...] = tuple(configs)
        rows = [(c.num_upes, c.upe_width, c.num_scrs, c.scr_width) for c in self.configs]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        self.num_upes, self.upe_width, self.num_scrs, self.scr_width = columns


#: One configuration or a whole candidate table: every Table I term takes either.
Configs = Union[HardwareConfig, CandidateTable]


class CostModel:
    """Evaluates Table I for (hardware configuration, workload) pairs."""

    def __init__(self, clock_hz: float = KERNEL_CLOCK_HZ) -> None:
        self.clock_hz = clock_hz

    # --------------------------------------------------------------- Table I
    # Each term is one NumPy expression: a HardwareConfig gives a scalar, a
    # CandidateTable an array with one entry per candidate.
    @staticmethod
    def merge_rounds(num_edges: int, upe_width: int | np.ndarray) -> np.integer | np.ndarray:
        """``m = log2(e / w_upe) - 1`` merging rounds (at least zero), counted
        exactly: one round fewer than merging the ``ceil(e / w_upe)`` chunks
        takes (:func:`repro.core.merge.merge_rounds`)."""
        return np.maximum(merge.merge_rounds(-(-num_edges // upe_width)) - 1, 0)

    def ordering_cycles(self, workload: WorkloadParams, config: Configs) -> float | np.ndarray:
        """Edge-ordering estimate: ``2 * m * e / (n_upe * w_upe)``."""
        e = workload.num_edges
        if e == 0:
            return 0.0
        throughput = config.num_upes * config.upe_width
        # Local chunk sorting contributes one additional pass over the edges
        # even when no merging is needed.
        effective_rounds = np.maximum(self.merge_rounds(e, config.upe_width), 1)
        return 2.0 * effective_rounds * e / throughput

    def selecting_cycles(self, workload: WorkloadParams, config: Configs) -> float | np.ndarray:
        """Unique-random-selection estimate: ``s / n_upe``."""
        return workload.total_selections / config.num_upes

    def reshaping_cycles(self, workload: WorkloadParams, config: Configs) -> float | np.ndarray:
        """Data-reshaping estimate: ``max(n / n_scr, e / w_scr)``."""
        if workload.num_edges == 0:
            return 0.0
        return np.maximum(
            workload.num_nodes / config.num_scrs,
            workload.num_edges / config.scr_width,
        )

    def reindexing_cycles(self, workload: WorkloadParams, config: Configs) -> int | np.ndarray:
        """Subgraph-reindexing estimate: one filter-tree lookup per endpoint.

        Not part of Table I (the paper folds it into the selection path); the
        estimate is two lookups (destination, source) per sampled edge, where
        the sampled edge count is ``s - b`` (every non-batch selection adds one
        edge).  Each lookup scans the per-seed mapping SRAM through the
        combined filter trees of all SCR slots; because every batch node's
        neighbourhood is reindexed against its own mapping, the mapping stays
        small and a lookup almost always completes in a single cycle.  The
        count is :func:`~repro.core.kernels.reindexing_cycle_estimate`'s.
        """
        sampled_edges = max(workload.total_selections - workload.batch_size, 0)
        return reindexing_cycle_estimate(
            2 * sampled_edges, workload.per_seed_subgraph_nodes, config
        )

    # ------------------------------------------------------------- interface
    def estimate(self, workload: WorkloadParams, config: HardwareConfig) -> CostEstimate:
        """Full per-task estimate for one configuration, as Python floats."""
        return CostEstimate(
            ordering_cycles=float(self.ordering_cycles(workload, config)),
            selecting_cycles=float(self.selecting_cycles(workload, config)),
            reshaping_cycles=float(self.reshaping_cycles(workload, config)),
            reindexing_cycles=float(self.reindexing_cycles(workload, config)),
            config=config,
        )

    def ranking(self, workload: WorkloadParams, table: CandidateTable) -> np.ndarray:
        """Candidate indices by ascending total estimate.

        The terms are the ones :meth:`estimate` evaluates, over the table's
        columns, summed in :attr:`CostEstimate.total_cycles`' order; the sort
        is stable, so tied candidates keep the table's order.
        """
        totals = (
            self.ordering_cycles(workload, table)
            + self.selecting_cycles(workload, table)
            + self.reshaping_cycles(workload, table)
            + self.reindexing_cycles(workload, table)
        )
        return np.argsort(totals, kind="stable")

    def best_configuration(
        self,
        workload: WorkloadParams,
        candidates: Iterable[HardwareConfig],
    ) -> Tuple[HardwareConfig, CostEstimate]:
        """The candidate with the lowest total estimate (the first of tied ones).

        Raises ``ValueError`` when no candidate is supplied.
        """
        table = CandidateTable(candidates)
        if not table.configs:
            raise ValueError("no candidate configurations supplied")
        best = table.configs[int(self.ranking(workload, table)[0])]
        return best, self.estimate(workload, best)
