"""Analytic cost model of GNN preprocessing on AutoGNN (Table I).

The host-side software evaluates these closed-form cycle estimates for every
pre-compiled bitstream and picks the configuration with the lowest end-to-end
estimate (Section V-B).  The formulas are parameterised by the hardware
(UPE/SCR count and width) and the workload (graph size and GNN
hyperparameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.config import HardwareConfig, KERNEL_CLOCK_HZ
from repro.core.kernels import reindexer_scan_width, reindexing_cycle_estimate


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


def _distinct(
    configs: Sequence[HardwareConfig], key: Callable[[HardwareConfig], Hashable]
) -> Tuple[Tuple[HardwareConfig, ...], np.ndarray]:
    """The first configuration of each distinct ``key``, in candidate order,
    and each candidate's row among them."""
    rows: Dict[Hashable, int] = {}
    firsts: List[HardwareConfig] = []
    index = []
    for config in configs:
        variant = key(config)
        row = rows.get(variant)
        if row is None:
            row = rows[variant] = len(firsts)
            firsts.append(config)
        index.append(row)
    return tuple(firsts), np.asarray(index, dtype=np.intp)


class CandidateTable:
    """Candidate configurations as arrays over their distinct region variants.

    Each Table I term reads one region's parameters only: ordering and
    selecting the UPE region's ``(n_upe, w_upe)``, reshaping the SCR
    region's ``(n_scr, w_scr)`` and reindexing only their product, the
    reindexer's scan width.  A staged library pairs every UPE variant
    with every SCR variant, so its 100 candidates hold only ten distinct
    variants per region and one scan width.  The table keeps the first
    candidate of each variant and, per candidate, the row of its variant:
    the cost model evaluates each term once per variant and gathers.

    Attributes:
        configs: the candidates, in the order ties are broken by.
        upe_variants: first candidate of each distinct ``(n_upe, w_upe)``.
        upe_rows: each candidate's row in ``upe_variants``.
        scr_variants: first candidate of each distinct ``(n_scr, w_scr)``.
        scr_rows: each candidate's row in ``scr_variants``.
        lane_variants: first candidate of each distinct scan width.
        lane_rows: each candidate's row in ``lane_variants``.
    """

    def __init__(self, configs: Iterable[HardwareConfig]) -> None:
        self.configs: Tuple[HardwareConfig, ...] = tuple(configs)
        self.upe_variants, self.upe_rows = _distinct(
            self.configs, lambda config: (config.num_upes, config.upe_width)
        )
        self.scr_variants, self.scr_rows = _distinct(
            self.configs, lambda config: (config.num_scrs, config.scr_width)
        )
        self.lane_variants, self.lane_rows = _distinct(self.configs, reindexer_scan_width)


class CostModel:
    """Evaluates Table I for (hardware configuration, workload) pairs."""

    def __init__(self, clock_hz: float = KERNEL_CLOCK_HZ) -> None:
        self.clock_hz = clock_hz

    # --------------------------------------------------------------- Table I
    @staticmethod
    def merge_rounds(num_edges: int, upe_width: int) -> int:
        """``m = log2(e / w_upe) - 1`` merging rounds (at least zero)."""
        if num_edges <= upe_width:
            return 0
        return max(int(math.ceil(math.log2(num_edges / upe_width))) - 1, 0)

    def ordering_cycles(self, workload: WorkloadParams, config: HardwareConfig) -> float:
        """Edge-ordering estimate: ``2 * m * e / (n_upe * w_upe)``."""
        e = workload.num_edges
        if e == 0:
            return 0.0
        m = self.merge_rounds(e, config.upe_width)
        throughput = config.num_upes * config.upe_width
        # Local chunk sorting contributes one additional pass over the edges
        # even when no merging is needed.
        effective_rounds = max(m, 1)
        return 2.0 * effective_rounds * e / throughput

    def selecting_cycles(self, workload: WorkloadParams, config: HardwareConfig) -> float:
        """Unique-random-selection estimate: ``s / n_upe``."""
        return workload.total_selections / config.num_upes

    def reshaping_cycles(self, workload: WorkloadParams, config: HardwareConfig) -> float:
        """Data-reshaping estimate: ``max(n / n_scr, e / w_scr)``."""
        if workload.num_edges == 0:
            return 0.0
        return max(
            workload.num_nodes / config.num_scrs,
            workload.num_edges / config.scr_width,
        )

    def reindexing_cycles(self, workload: WorkloadParams, config: HardwareConfig) -> float:
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
        return float(
            reindexing_cycle_estimate(
                2 * sampled_edges, workload.per_seed_subgraph_nodes, config
            )
        )

    # ------------------------------------------------------------- interface
    def estimate(self, workload: WorkloadParams, config: HardwareConfig) -> CostEstimate:
        """Full per-task estimate for one configuration."""
        return CostEstimate(
            ordering_cycles=self.ordering_cycles(workload, config),
            selecting_cycles=self.selecting_cycles(workload, config),
            reshaping_cycles=self.reshaping_cycles(workload, config),
            reindexing_cycles=self.reindexing_cycles(workload, config),
            config=config,
        )

    def ranking(self, workload: WorkloadParams, table: CandidateTable) -> np.ndarray:
        """Candidate indices by ascending total estimate.

        Each term is evaluated by its scalar method once per distinct region
        variant and gathered per candidate, so every value equals
        :meth:`estimate`'s.  Totals sum the terms in
        :attr:`CostEstimate.total_cycles`' order; the sort is stable, so
        tied candidates keep the table's order.
        """

        def per_variant(term, variants, rows):
            return np.array([term(workload, c) for c in variants], dtype=np.float64)[rows]

        totals = (
            per_variant(self.ordering_cycles, table.upe_variants, table.upe_rows)
            + per_variant(self.selecting_cycles, table.upe_variants, table.upe_rows)
            + per_variant(self.reshaping_cycles, table.scr_variants, table.scr_rows)
            + per_variant(self.reindexing_cycles, table.lane_variants, table.lane_rows)
        )
        return np.argsort(totals, kind="stable")

    def rank_configurations(
        self,
        workload: WorkloadParams,
        candidates: Iterable[HardwareConfig],
    ) -> List[Tuple[HardwareConfig, CostEstimate]]:
        """All candidates sorted by ascending total estimate (ties in
        candidate order)."""
        table = CandidateTable(candidates)
        ranked = [table.configs[i] for i in self.ranking(workload, table).tolist()]
        return [(config, self.estimate(workload, config)) for config in ranked]

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
