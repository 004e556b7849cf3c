"""Neighbour sampling (unique random selection): the fast path and its oracle.

GNN preprocessing samples a fixed number ``k`` of unique neighbours per node
(node-wise, the only strategy the AutoGNN pipeline of Fig. 14 runs) before
inference, bounding the node explosion of multi-hop traversal (Section II-B).

:func:`node_wise_sample_with_stats` is the one sampler every path runs: it
gathers whole frontiers through ``CSCGraph.in_neighbors_batch`` and replaces
per-node loops with segment arithmetic.  :func:`node_wise_sample_reference`
is its per-node oracle, called only by tests and the preprocessing bench.
Both follow the same *priority-draw* rule and consume the RNG stream in the
same order, so their outputs are bit-identical (see DESIGN.md, "The fast path
and its oracles"):

* a node's candidate set is its unique in-neighbour array, ascending;
* if the candidate set has at most ``k`` entries it is taken whole and the
  RNG is untouched;
* otherwise one uniform priority per candidate is drawn (in ascending
  candidate order) and the ``k`` candidates with the smallest priorities are
  kept, emitted in ascending VID order.

The equivalence relies on NumPy's ``Generator.random`` producing the same
stream whether drawn in one flat call or in consecutive per-node calls of the
same total length.  The device's selection kernel, its datapath emulation
included, draws through this sampler too, so every path samples alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph

@dataclass
class SelectionStats:
    """Work counters of one multi-hop selection (drives cycle accounting).

    Attributes:
        arrays: neighbour arrays processed (frontier nodes with >= 1 neighbour).
        draws: unique neighbour draws performed (``min(k, unique degree)`` per
            processed array).
    """

    arrays: int = 0
    draws: int = 0


@dataclass
class SampledSubgraph:
    """The result of multi-hop neighbourhood sampling.

    Attributes:
        batch_nodes: the seed (batch) VIDs, in the original graph's numbering.
        layers: one COO edge list per GNN layer, outermost hop first, with
            original VIDs.  ``layers[i]`` holds the edges traversed at hop
            ``num_layers - i`` (matching the paper's layer-1-first inference).
        sampled_nodes: all distinct original VIDs touched by the sample,
            including the batch nodes.
        num_nodes: node count of the graph the sample was drawn from (kept so
            degenerate zero-layer samples still carry the VID range).
    """

    batch_nodes: np.ndarray
    layers: List[COOGraph] = field(default_factory=list)
    sampled_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=VID_DTYPE))
    num_nodes: int = 0

    @property
    def num_layers(self) -> int:
        """Number of sampled hops."""
        return len(self.layers)

    @property
    def num_sampled_nodes(self) -> int:
        """Number of distinct vertices in the sample."""
        return int(self.sampled_nodes.shape[0])

    @property
    def num_sampled_edges(self) -> int:
        """Total number of edges across all sampled layers."""
        return int(sum(layer.num_edges for layer in self.layers))

    def all_edges(self) -> COOGraph:
        """Concatenate every layer's edges into one COO graph (original VIDs)."""
        num_nodes = int(self.layers[0].num_nodes) if self.layers else int(self.num_nodes)
        if not self.layers:
            return COOGraph(
                src=np.empty(0, dtype=VID_DTYPE),
                dst=np.empty(0, dtype=VID_DTYPE),
                num_nodes=num_nodes,
            )
        src = np.concatenate([layer.src for layer in self.layers])
        dst = np.concatenate([layer.dst for layer in self.layers])
        return COOGraph(src=src, dst=dst, num_nodes=num_nodes, validate_vids=False)


# ---------------------------------------------------------------------------
# Fast path: one hop over a whole frontier
# ---------------------------------------------------------------------------
def _unique_per_segment(
    flat: np.ndarray, offsets: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate each segment of a concatenated neighbour gather.

    Returns ``(values, segments, unique_degrees)``: the per-segment unique
    values in (segment-major, ascending-value) order, the segment id of each
    value, and the unique-degree of every segment.  Values and segment ids
    are packed into single 64-bit keys so one single-key sort (much faster
    than a two-key lexsort) orders and deduplicates everything at once.
    """
    num_segments = int(offsets.shape[0] - 1)
    degs = np.diff(offsets)
    if flat.shape[0] == 0:
        return (
            np.empty(0, dtype=VID_DTYPE),
            np.empty(0, dtype=np.int64),
            np.zeros(num_segments, dtype=np.int64),
        )
    # Bits needed to pack a VID below a segment id in one 64-bit key.
    shift = max(int(num_nodes).bit_length(), 1)
    seg = np.repeat(np.arange(num_segments, dtype=np.int64), degs)
    keys = (seg << shift) | flat.astype(np.int64, copy=False)
    # CSCs built by the pipeline store each neighbour list ascending, making
    # the packed keys already sorted; only sort when they are not.
    if keys.shape[0] > 1 and not bool((keys[1:] >= keys[:-1]).all()):
        keys = np.sort(keys)
    keep = np.ones(keys.shape[0], dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    unique_keys = keys[keep]
    values = (unique_keys & ((1 << shift) - 1)).astype(VID_DTYPE)
    segments = unique_keys >> shift
    unique_degrees = np.bincount(segments, minlength=num_segments)
    return values, segments, unique_degrees


def _node_layer_vectorized(
    graph: CSCGraph, frontier: np.ndarray, k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One node-wise hop over the whole frontier with array arithmetic.

    Bit-identical to a hop of :func:`node_wise_sample_reference`: uniques per
    frontier node are enumerated in the same (node-major, ascending) order,
    priorities are drawn from the same RNG stream, and stable sorting
    reproduces the same tie-breaking.
    """
    flat, offsets = graph.in_neighbors_batch(frontier)
    values, segments, unique_degrees = _unique_per_segment(flat, offsets, graph.num_nodes)
    arrays = int((unique_degrees > 0).sum())
    draws = int(np.minimum(unique_degrees, k).sum())
    if values.shape[0] == 0:
        return np.empty(0, dtype=VID_DTYPE), np.empty(0, dtype=VID_DTYPE), arrays, draws

    oversized = unique_degrees > k
    needs_draw = oversized[segments]
    draw_positions = np.flatnonzero(needs_draw)
    # One flat priority draw covers every oversized segment, assigned in the
    # same (node-major, ascending-candidate) order the oracle's loop uses;
    # segments that fit in k are taken whole and never touch the RNG.
    num_draw_entries = draw_positions.shape[0]
    priorities = rng.random(num_draw_entries)
    draw_seg = segments[draw_positions]
    # Order candidates by (segment, priority) without a slow two-key float
    # lexsort: rank the priorities globally (they are almost surely distinct)
    # and pack segment + rank into one integer key.
    order = np.argsort(priorities)
    ranks = np.empty(num_draw_entries, dtype=np.int64)
    ranks[order] = np.arange(num_draw_entries, dtype=np.int64)
    rank_shift = max(int(num_draw_entries).bit_length(), 1)
    keys = np.sort((draw_seg << rank_shift) | ranks)
    grouped = keys >> rank_shift
    is_start = np.ones(grouped.shape[0], dtype=bool)
    is_start[1:] = grouped[1:] != grouped[:-1]
    start_of = np.maximum.accumulate(np.where(is_start, np.arange(grouped.shape[0]), 0))
    in_first_k = (np.arange(grouped.shape[0]) - start_of) < k
    winners = order[(keys & ((1 << rank_shift) - 1))[in_first_k]]

    # values/segments are already (node-major, ascending-source); flipping the
    # winners back on in a selection mask emits in that order with no sort.
    selected = ~needs_draw
    selected[draw_positions[winners]] = True
    src = values[selected]
    dst = frontier[segments[selected]].astype(VID_DTYPE, copy=False)
    return src, dst, arrays, draws


# ---------------------------------------------------------------------------
# Multi-hop samplers
# ---------------------------------------------------------------------------
def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` as one sort and an adjacent-difference mask.

    From NumPy 2.3 a plain ``np.unique`` call takes a hash path that is an
    order of magnitude slower than this on 100k int64 values; this form
    returns the same array on every NumPy version.
    """
    ordered = np.sort(values)
    if ordered.size == 0:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def dense_vid_range(num_vids: int, size: int) -> bool:
    """Whether ``size`` VIDs in ``[0, num_vids)`` are dense enough to scatter.

    A scatter over the VID range costs O(size + num_vids) and beats a sort
    when the range is comparable to the input (the pipeline's frontiers and
    subgraph endpoints); against a much larger graph it would allocate and
    scan the whole range, so sparse inputs sort instead.  The one rule
    :func:`_sorted_unique` and ``reindex.factorize_first_occurrence`` both
    choose by; each function's two branches return identical arrays.
    """
    return 0 < num_vids <= 4 * size + 1024


def _sorted_unique(values: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted distinct VIDs, by boolean scatter or :func:`sorted_unique`."""
    if values.size == 0:
        return np.empty(0, dtype=VID_DTYPE)
    if dense_vid_range(num_nodes, values.size):
        mask = np.zeros(num_nodes, dtype=bool)
        mask[values] = True
        return np.flatnonzero(mask).astype(VID_DTYPE, copy=False)
    return sorted_unique(values).astype(VID_DTYPE, copy=False)


def node_wise_sample_with_stats(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
) -> Tuple[SampledSubgraph, SelectionStats]:
    """Node-wise sampling plus the work counters the UPE kernel charges for."""
    rng = np.random.default_rng(seed)
    batch = np.array(batch_nodes, dtype=VID_DTYPE)
    if batch.size and (batch.min() < 0 or batch.max() >= graph.num_nodes):
        raise IndexError(f"batch VIDs must lie in [0, num_nodes) = [0, {graph.num_nodes})")
    frontier = _sorted_unique(batch, graph.num_nodes)
    layers: List[COOGraph] = []
    touched: List[np.ndarray] = [frontier]
    stats = SelectionStats()

    for hop in range(num_layers):
        src, dst, arrays, draws = _node_layer_vectorized(graph, frontier, k, rng)
        stats.arrays += arrays
        stats.draws += draws
        layers.append(COOGraph(src=src, dst=dst, num_nodes=graph.num_nodes, validate_vids=False))
        touched.append(src)
        # The last hop's sources are no frontier: nothing reads their dedup.
        if hop + 1 < num_layers:
            frontier = _sorted_unique(src, graph.num_nodes)
            if frontier.size == 0:
                break

    sampled = _sorted_unique(np.concatenate(touched), graph.num_nodes)
    # Present layers outermost-hop first, matching the inference order.
    sample = SampledSubgraph(
        batch_nodes=batch,
        layers=list(reversed(layers)),
        sampled_nodes=sampled,
        num_nodes=graph.num_nodes,
    )
    return sample, stats


def node_wise_sample(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
) -> SampledSubgraph:
    """Node-wise neighbourhood sampling (GraphSAGE-style, Fig. 4a).

    Starting from the batch nodes, each hop samples ``k`` unique neighbours of
    every frontier node; the sampled neighbours become the next frontier.
    """
    return node_wise_sample_with_stats(graph, batch_nodes, k, num_layers, seed=seed)[0]


def node_wise_sample_reference(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
) -> Tuple[SampledSubgraph, SelectionStats]:
    """Per-node oracle of :func:`node_wise_sample_with_stats`.

    Walks every hop node by node: one ``np.unique`` per neighbour array and
    one ``rng.random`` call per oversized array, with its own frontier dedup.
    It shares only the result containers with the fast path; tests and the
    preprocessing bench hold the fast path's sample and stats to it.
    """
    rng = np.random.default_rng(seed)
    batch = np.asarray(list(batch_nodes), dtype=VID_DTYPE)
    frontier = np.unique(batch)
    layers: List[COOGraph] = []
    touched = set(frontier.tolist())
    stats = SelectionStats()
    for _ in range(num_layers):
        layer_src: List[int] = []
        layer_dst: List[int] = []
        for node in frontier.tolist():
            candidates = np.unique(graph.in_neighbors(node))
            if candidates.shape[0] == 0:
                continue
            stats.arrays += 1
            if candidates.shape[0] > k:
                winners = np.argsort(rng.random(candidates.shape[0]))[:k]
                candidates = candidates[np.sort(winners)]
            stats.draws += int(candidates.shape[0])
            for src in candidates.tolist():
                layer_src.append(src)
                layer_dst.append(node)
        src = np.array(layer_src, dtype=VID_DTYPE)
        layers.append(
            COOGraph(
                src=src,
                dst=np.array(layer_dst, dtype=VID_DTYPE),
                num_nodes=graph.num_nodes,
                validate_vids=False,
            )
        )
        touched.update(layer_src)
        frontier = np.unique(src)
        if frontier.size == 0:
            break
    sample = SampledSubgraph(
        batch_nodes=batch,
        layers=list(reversed(layers)),
        sampled_nodes=np.array(sorted(touched), dtype=VID_DTYPE),
        num_nodes=graph.num_nodes,
    )
    return sample, stats

