"""UPE and SCR kernels: controllers, schedulers and cycle accounting.

The UPE kernel (Fig. 12a) owns a pool of UPEs, a scheduler with a scoreboard
and a scratchpad; it executes edge ordering (chunked radix sort + UPE merge)
and unique random selection.  The SCR kernel (Fig. 13a) owns the reshaper and
reindexer controllers and their SCR slots; it executes data reshaping and
subgraph reindexing.

Cycle accounting is centralised in the ``*_cycle_count`` functions so the
functional simulator and the analytic performance models charge identical
costs for identical work (see DESIGN.md, "Timing model").  Selection has one
sampler for every path; the ``detailed`` emulation re-gathers its output
through the UPE datapath rather than drawing a sample of its own.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.core.config import HardwareConfig
from repro.core.merge import merge_rounds, upe_merge_sort
from repro.core.scr import SCR, Reindexer, Reshaper
from repro.core.upe import CYCLES_PER_PARTITION_PASS, DEFAULT_RADIX_BITS, UPE
from repro.graph.coo import COOGraph, vid_bits
from repro.graph.csc import CSCGraph
from repro.graph.convert import csc_from_ordered, edge_order
from repro.graph.reindex import ReindexResult, reindex_subgraph, reindexed_result
from repro.graph.sampling import SampledSubgraph, node_wise_sample_with_stats

#: Per-neighbour-array overhead of the selection control path: building the
#: index array plus the final bitmap-driven set-partition (Fig. 16).
SELECTION_ARRAY_OVERHEAD_CYCLES: int = 1 + CYCLES_PER_PARTITION_PASS


# ---------------------------------------------------------------------------
# Cycle-count formulas shared by the simulator and the analytic models.
# ---------------------------------------------------------------------------
def key_bits_for_nodes(num_nodes: int) -> int:
    """Bits of the concatenated (dst, src) sort key for a graph of ``num_nodes``."""
    return 2 * vid_bits(num_nodes)


def ordering_cycle_count(
    num_edges: int,
    num_nodes: int,
    config: HardwareConfig,
    radix_bits: int = DEFAULT_RADIX_BITS,
) -> int:
    """Cycles for edge ordering: chunked local radix sort plus UPE merge rounds.

    Local sort: each chunk of ``w_upe`` keys takes one set-partition pass per
    radix digit; chunks are spread over the UPEs.  Merge: every merge round
    streams all edges through the UPEs at ``w_upe / 2`` elements per cycle
    (Algorithm 1), and there are ``ceil(log2(num_chunks))`` rounds.
    """
    if num_edges == 0:
        return 0
    w = config.upe_width
    n_upe = config.num_upes
    num_chunks = int(math.ceil(num_edges / w))
    passes = max(int(math.ceil(key_bits_for_nodes(num_nodes) / radix_bits)), 1)
    local = int(math.ceil(num_chunks / n_upe)) * passes * CYCLES_PER_PARTITION_PASS
    rounds = merge_rounds(num_chunks)
    per_round = int(math.ceil(num_edges / (n_upe * max(w // 2, 1))))
    return local + rounds * per_round


def selection_cycle_count(
    num_draws: int,
    num_arrays: int,
    config: HardwareConfig,
) -> int:
    """Cycles for unique random selection.

    Each draw extracts one element with a one-hot set-partition (single
    cycle); every neighbour array additionally pays the index-array setup and
    the final bitmap extraction.  Work is spread over the UPEs.
    """
    if num_draws == 0 and num_arrays == 0:
        return 0
    total = num_draws + num_arrays * SELECTION_ARRAY_OVERHEAD_CYCLES
    return int(math.ceil(total / config.num_upes))


def reshaping_cycle_count(
    sorted_dst: np.ndarray,
    num_nodes: int,
    config: HardwareConfig,
) -> int:
    """Cycles for data reshaping given the actual destination-sorted column.

    Mirrors the reshaper walk: each segment of ``w_scr`` edges is compared
    against groups of ``n_scr`` target VIDs; only targets whose count can
    still change (those not exceeding the segment maximum) are visited.  The
    walk is evaluated in closed form: because the column is sorted, each
    segment's maximum is its last element, so the per-segment target spans
    are differences of the padded segment maxima.
    """
    sorted_dst = np.asarray(sorted_dst, dtype=np.int64)
    num_edges = int(sorted_dst.shape[0])
    if num_edges == 0:
        return 0
    width = config.scr_width
    slots = config.num_scrs
    num_segments = int(math.ceil(num_edges / width))
    seg_ends = np.minimum(np.arange(1, num_segments + 1, dtype=np.int64) * width, num_edges)
    seg_maxima = sorted_dst[seg_ends - 1]
    last_targets = np.minimum(seg_maxima + 1, num_nodes)
    prev_targets = np.concatenate([np.zeros(1, dtype=np.int64), last_targets[:-1]])
    spans = last_targets - prev_targets + 1
    return int(((spans + slots - 1) // slots).sum())


def reshaping_cycle_estimate(num_edges: int, num_nodes: int, config: HardwareConfig) -> int:
    """Reshaping cycles from aggregate counts only (no edge array available).

    Upper-bounds the per-segment target span by assuming targets and segments
    advance in lockstep, which reduces to the Table I envelope
    ``max(ceil(e / w_scr), ceil(n / n_scr))`` plus one cycle per segment.
    """
    if num_edges == 0:
        return 0
    segments = int(math.ceil(num_edges / config.scr_width))
    target_groups = int(math.ceil(num_nodes / config.num_scrs))
    return max(segments, target_groups) + segments


def reindexer_scan_width(config: HardwareConfig) -> int:
    """Mapping entries the reindexer can check per cycle.

    The reindexer drives every SCR slot in parallel against the SRAM bank, so
    its effective filter-tree width is ``n_scr * w_scr``.
    """
    return config.num_scrs * config.scr_width


def reindexing_cycle_count(
    mapping_sizes: Sequence[int],
    config: HardwareConfig,
) -> int:
    """Cycles for subgraph reindexing given the mapping size at each lookup.

    Each lookup scans the SRAM bank through the filter trees of all SCR slots;
    one cycle per ``n_scr * w_scr`` mapping entries (a single cycle while the
    mapping fits in one scan, which is the common case for sampled subgraphs).
    """
    sizes = np.asarray(mapping_sizes, dtype=np.int64)
    if sizes.shape[0] == 0:
        return 0
    width = reindexer_scan_width(config)
    scans = np.maximum((sizes + width - 1) // width, 1)
    return int(scans.sum())


def reindexing_cycles_of(result: ReindexResult, config: HardwareConfig) -> int:
    """:func:`reindexing_cycle_count` of the occupancies ``result``'s numbering saw.

    ``result`` numbers its ``n`` endpoint lookups (``dst[0], src[0], dst[1],
    ...``) by first appearance from an empty mapping, so lookup ``i`` sees
    ``max(codes[:i]) + 1`` mappings, at least 1.  It takes one scan more for
    each multiple ``tW`` of the scan width that its occupancy exceeds, that
    is for each code ``tW`` first seen before it.  With ``m`` distinct VIDs
    and ``p_c`` where code ``c`` first appears, the charge is ``n + sum over
    t >= 1, tW < m of (n - 1 - p_tW)``: just ``n`` while ``m <= W``.  No
    larger code precedes ``c``, so ``p_c`` is the first lookup of a code
    ``>= c``, which bisecting each endpoint array's running maximum finds
    (DESIGN.md, "The fast path and its oracles").
    """
    src, dst = result.edges.src, result.edges.dst
    n = 2 * dst.shape[0]
    width = reindexer_scan_width(config)
    boundaries = np.arange(width, result.num_sampled_nodes, width)
    dst_at = np.searchsorted(np.maximum.accumulate(dst), boundaries)
    src_at = np.searchsorted(np.maximum.accumulate(src), boundaries)
    first_seen = np.minimum(2 * dst_at, 2 * src_at + 1)
    return n + int((n - 1 - first_seen).sum())


def reindexing_cycle_estimate(
    num_endpoints: int, mapping_size: int, config: HardwareConfig
) -> int | np.ndarray:
    """Reindexing cycles from aggregate counts (average mapping occupancy of 1/2).

    Each lookup takes ``max(ceil((mapping_size / 2) / scan width), 1)``
    cycles.  ``config`` may be a :class:`~repro.core.cost_model.CandidateTable`:
    the count then broadcasts over its columns.
    """
    if num_endpoints == 0:
        return 0
    avg_scan = -(-max(mapping_size, 1) // (2 * reindexer_scan_width(config)))
    return num_endpoints * avg_scan


# ---------------------------------------------------------------------------
# UPE kernel
# ---------------------------------------------------------------------------
class UPEKernel:
    """UPE controller + scheduler + scratchpad executing ordering and selection.

    ``detailed`` emulates the UPE datapath element by element.
    """

    def __init__(
        self,
        config: HardwareConfig,
        detailed: bool = False,
        radix_bits: int = DEFAULT_RADIX_BITS,
    ) -> None:
        self.config = config
        self.detailed = detailed
        self.radix_bits = radix_bits
        # The functional datapath is emulated through a single UPE instance;
        # parallelism across the ``num_upes`` physical instances is reflected
        # in the cycle formulas, not by instantiating hundreds of objects.
        self.upe = UPE(width=config.upe_width, radix_bits=radix_bits)

    # --------------------------------------------------------- edge ordering
    def edge_ordering(self, graph: COOGraph) -> Tuple[COOGraph, int]:
        """Sort the COO edge array by (dst, src); returns (sorted graph, cycles).

        Cycles always come from :func:`ordering_cycle_count`, never from the
        host sort.  The fast path *is* the reference :func:`edge_order`;
        ``detailed`` emulates the chunked radix sort and UPE merge instead.
        """
        cycles = ordering_cycle_count(
            graph.num_edges, graph.num_nodes, self.config, radix_bits=self.radix_bits
        )
        if graph.num_edges == 0:
            return graph.copy(), 0
        if not self.detailed:
            return edge_order(graph), cycles
        keys = graph.concatenate_vids()
        key_bits = key_bits_for_nodes(graph.num_nodes)
        w = self.config.upe_width
        chunks = [keys[i : i + w] for i in range(0, keys.shape[0], w)]
        sorted_chunks = [self.upe.radix_sort_chunk(c, key_bits)[0] for c in chunks]
        merged, _ = upe_merge_sort(self.upe, sorted_chunks, key_bits)
        src, dst = COOGraph.deconcatenate_vids(merged, graph.num_nodes)
        # A permutation of already-validated edges needs no range re-check.
        ordered = graph.with_edges(src, dst, validate=False)
        return ordered, cycles

    # ------------------------------------------------------------- selection
    def unique_random_selection(
        self,
        csc: CSCGraph,
        batch_nodes: Sequence[int],
        k: int,
        num_layers: int,
        seed: int = 0,
    ) -> Tuple[SampledSubgraph, int]:
        """Node-wise unique random selection driven by UPE set-partitioning.

        Every device draws with the one node-wise sampler and charges its
        ``SelectionStats``.  ``detailed`` then gathers each layer's sources
        through the UPE datapath: one bitmap set-partition per ``w_upe`` chunk
        of every neighbour array, the final step of Fig. 16.
        """
        sample, selection = node_wise_sample_with_stats(csc, batch_nodes, k, num_layers, seed=seed)
        if self.detailed:
            sample.layers = [self._gather_by_bitmap(csc, layer) for layer in sample.layers]
        return sample, selection_cycle_count(selection.draws, selection.arrays, self.config)

    def _gather_by_bitmap(self, csc: CSCGraph, layer: COOGraph) -> COOGraph:
        """Re-gather one sampled layer's sources with the UPE's bitmap extraction."""
        w = self.config.upe_width
        parts = []
        # Layers are grouped by destination, ascending; each group is one array.
        nodes, starts = np.unique(layer.dst, return_index=True)
        ends = np.append(starts[1:], layer.num_edges)
        for node, start, end in zip(nodes.tolist(), starts.tolist(), ends.tolist()):
            neighbors = np.unique(csc.in_neighbors(node))
            bitmap = np.isin(neighbors, layer.src[start:end])
            for lo in range(0, neighbors.shape[0], w):
                result = self.upe.extract_by_bitmap(neighbors[lo : lo + w], bitmap[lo : lo + w])
                parts.append(result.selected)
        src = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return layer.with_edges(src.astype(layer.src.dtype), layer.dst, validate=False)


# ---------------------------------------------------------------------------
# SCR kernel
# ---------------------------------------------------------------------------
class SCRKernel:
    """SCR controllers (reshaper + reindexer) executing reshaping and reindexing."""

    def __init__(self, config: HardwareConfig, detailed: bool = False) -> None:
        self.config = config
        self.detailed = detailed
        self._scrs = [SCR(width=config.scr_width) for _ in range(config.num_scrs)]
        self.reshaper = Reshaper(self._scrs)
        # The reindexer drives all SCR slots in parallel against its SRAM bank,
        # so its effective scan width is the combined comparator count.
        self.reindexer = Reindexer(SCR(width=config.scr_width * config.num_scrs))

    # -------------------------------------------------------------- reshaping
    def data_reshaping(self, ordered: COOGraph) -> Tuple[CSCGraph, int]:
        """Build the CSC of a destination-sorted COO; returns (csc, cycles)."""
        cycles = reshaping_cycle_count(ordered.dst, ordered.num_nodes, self.config)
        indptr = None
        if self.detailed:
            indptr = self.reshaper.build_pointer_array(ordered.dst, ordered.num_nodes)
        return csc_from_ordered(ordered, indptr), cycles

    # ------------------------------------------------------------- reindexing
    def subgraph_reindexing(self, sample: SampledSubgraph) -> Tuple[ReindexResult, int]:
        """Renumber the sampled subgraph; returns (reindex result, cycles).

        The fast path factorizes the endpoint stream and charges it in
        closed form (:func:`reindexing_cycles_of`); ``detailed`` runs the SCR
        reindexer's scans.  Both equal what the hash-map oracle
        ``reindex_edges_reference`` numbers and sees.
        """
        if self.detailed:
            combined = sample.all_edges()
            self.reindexer.reset()
            new_src, new_dst = self.reindexer.reindex_edges(combined.src, combined.dst)
            result = reindexed_result(
                new_src, new_dst, self.reindexer.original_vids(), mapping=self.reindexer.mapping
            )
            return result, self.reindexer.stats.cycles
        result = reindex_subgraph(sample)
        return result, reindexing_cycles_of(result, self.config)
