"""Dynamic graphs and update streams.

Social and e-commerce graphs grow continuously (Section III-A reports 0.52 %
and 0.95 % edge growth per day for SO and TB).  The experiments in Figs. 7,
28, 29 and 30 replay such growth; this module models the graph-over-time
substrate they run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.convert import build_pointer_array, coo_to_csc, edge_order, merge_edge_order
from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.generators import attachment_edges
from repro.graph.sampling import sorted_unique

#: Daily edge-growth rates reported in the paper for the two dynamic datasets.
DAILY_GROWTH_RATE = {"SO": 0.0052, "TB": 0.0095}


@dataclass
class UpdateBatch:
    """One batch of graph updates (new edges arriving in a time step).

    Attributes:
        step: the time-step index (e.g. day or hour).
        src: source VIDs of the new edges.
        dst: destination VIDs of the new edges.
        new_nodes: number of vertices added in this step (non-negative:
            :meth:`DynamicGraph.apply` rejects a batch that removes vertices).
    """

    step: int
    src: np.ndarray
    dst: np.ndarray
    new_nodes: int = 0

    @property
    def num_edges(self) -> int:
        """Number of edges added in this batch."""
        return int(self.src.shape[0])


class _EdgeBuffer:
    """One growing ``src``/``dst`` buffer pair; snapshots' edge arrays are its prefixes.

    :meth:`append` writes only past :attr:`size`, the end of every view it
    has handed out, and hands out read-only views.  When the edges do not
    fit it moves to a buffer a quarter larger than they need; the views made
    so far keep the old one alive, unchanged.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src = self.dst = np.empty(0, dtype=VID_DTYPE)
        self.size = 0
        self.append(src, dst)

    def is_last(self, graph: COOGraph) -> bool:
        """True when ``graph``'s edge arrays are this buffer's whole filled prefix."""
        return (
            graph.num_edges == self.size
            and graph.src.base is self.src
            and graph.dst.base is self.dst
        )

    def append(self, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append edges; return read-only views of every edge held so far."""
        start, end = self.size, self.size + src.shape[0]
        if end > self.src.shape[0]:
            # Grow by a quarter: copies stay O(1) amortised per edge, and the
            # spare capacity (allocated but not yet touched) stays small.
            capacity = end + end // 4 + 64
            grown = (np.empty(capacity, dtype=VID_DTYPE), np.empty(capacity, dtype=VID_DTYPE))
            grown[0][:start] = self.src[:start]
            grown[1][:start] = self.dst[:start]
            self.src, self.dst = grown
        self.src[start:end] = src
        self.dst[start:end] = dst
        self.size = end
        views = (self.src[:end], self.dst[:end])
        for view in views:
            view.flags.writeable = False
        return views


@dataclass
class DynamicGraph:
    """A graph that accumulates update batches over time."""

    graph: COOGraph
    history: List[UpdateBatch] = field(default_factory=list)
    _edges: Optional[_EdgeBuffer] = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_steps(self) -> int:
        """Number of update batches applied so far."""
        return len(self.history)

    def apply(self, batch: UpdateBatch) -> COOGraph:
        """Apply an update batch and return the new snapshot.

        Only the batch's edges are range-checked and written.  The snapshot's
        ``src`` and ``dst`` are read-only prefix views of one buffer pair
        that this graph owns and grows geometrically; later batches are
        written past the end of every earlier snapshot's views.  The first
        ``apply``, and any to a graph that is not the buffer's last snapshot
        (say :attr:`graph` was replaced), copies the current edges into a
        fresh buffer, so the base graph's arrays are never written.

        The snapshot carries its graph conversion's ordered layout, which
        :func:`~repro.graph.convert.edge_order` returns instead of sorting:
        the previous snapshot's layout with the batch merged in
        (:func:`~repro.graph.convert.merge_edge_order`), or one full sort
        when the previous graph has none (the first snapshot after the
        base).  The layout carries its pointer array and moves to the new
        snapshot, so only the current one holds it.  A rejected batch
        changes nothing.
        """
        if batch.new_nodes < 0:
            raise ValueError(
                f"new_nodes must be non-negative, got {batch.new_nodes}: an update "
                "stream only adds vertices; build a new DynamicGraph to shrink one"
            )
        num_nodes = self.graph.num_nodes + batch.new_nodes
        added = COOGraph(src=batch.src, dst=batch.dst, num_nodes=num_nodes)
        if self._edges is None or not self._edges.is_last(self.graph):
            self._edges = _EdgeBuffer(self.graph.src, self.graph.dst)
        src, dst = self._edges.append(added.src, added.dst)
        snapshot = COOGraph(
            src=src, dst=dst, num_nodes=num_nodes, name=self.graph.name, validate_vids=False
        )
        ordered = self.graph._ordered
        # The layout moves: the previous snapshot drops it, so it is freed
        # once the merge has read it.
        self.graph._ordered = None
        self.graph = snapshot
        self.history.append(batch)
        if ordered is None:
            layout = edge_order(snapshot)
            layout._indptr = build_pointer_array(layout.dst, num_nodes)
        else:
            layout = merge_edge_order(ordered, added.src, added.dst, num_nodes)
            # The merged layout carries its own pointer array; the old one is spare.
            ordered._indptr = None
        snapshot._ordered = layout
        return snapshot

    def update_ratio(self, batch: UpdateBatch) -> float:
        """Fraction of the current edge set that a batch represents."""
        if self.graph.num_edges == 0:
            return 0.0
        return batch.num_edges / self.graph.num_edges


class GraphUpdateStream:
    """Generates a stream of update batches with a fixed per-step growth rate.

    Each step adds ``growth_rate`` × current-edge-count new edges; a fraction
    ``new_node_rate`` of added edges introduce previously unseen vertices
    (low-connectivity newcomers, as the paper observes for SO/TB), while the
    rest attach preferentially to existing hubs (JR/AM-style).
    """

    def __init__(
        self,
        base_graph: COOGraph,
        growth_rate: float,
        new_node_rate: float = 0.1,
        preferential: bool = True,
        seed: int = 0,
    ) -> None:
        if growth_rate < 0:
            raise ValueError("growth_rate must be non-negative")
        self.base_graph = base_graph
        self.growth_rate = growth_rate
        self.new_node_rate = new_node_rate
        self.preferential = preferential
        self._rng = np.random.default_rng(seed)

    def generate(self, num_steps: int) -> Iterator[UpdateBatch]:
        """Yield ``num_steps`` update batches, growing the edge count geometrically.

        Each step draws its edges as :func:`~repro.graph.generators.grow_graph`
        would on the graph grown so far.  Preferential attachment reads only
        that graph's destinations, so the stream keeps them in one growing
        buffer and a step costs O(batch), not O(graph).
        """
        num_edges = self.base_graph.num_edges
        num_nodes = self.base_graph.num_nodes
        dst_buffer = self.base_graph.dst.copy()
        for step in range(num_steps):
            add = max(int(round(num_edges * self.growth_rate)), 1)
            new_nodes = int(round(add * self.new_node_rate))
            src, dst = attachment_edges(
                dst_buffer[:num_edges], num_nodes, add, self._rng, self.preferential
            )
            # grow_graph's range check; it fails only on a graph with no vertices.
            COOGraph(src=src, dst=dst, num_nodes=num_nodes)
            if new_nodes > 0:
                # Route a share of the new edges to the freshly added vertices.
                idx = self._rng.choice(add, size=min(new_nodes, add), replace=False)
                dst[idx] = num_nodes + np.arange(len(idx), dtype=VID_DTYPE)
            if num_edges + add > dst_buffer.shape[0]:
                grown = np.empty(max(2 * dst_buffer.shape[0], num_edges + add), dtype=VID_DTYPE)
                grown[:num_edges] = dst_buffer[:num_edges]
                dst_buffer = grown
            dst_buffer[num_edges : num_edges + add] = dst
            num_edges += add
            num_nodes += new_nodes
            yield UpdateBatch(step=step, src=src, dst=dst, new_nodes=new_nodes)

    def replay(self, num_steps: int) -> DynamicGraph:
        """Build a :class:`DynamicGraph` by applying ``num_steps`` batches."""
        dynamic = DynamicGraph(graph=self.base_graph.copy())
        for batch in self.generate(num_steps):
            dynamic.apply(batch)
        return dynamic


def affected_vertex_ratio(
    graph: COOGraph,
    updated_dst: np.ndarray,
    num_layers: int,
) -> float:
    """Fraction of vertices reachable within ``num_layers`` hops of the updates.

    Used in Fig. 29a: with highly connected newcomers (JR/AM) a small update
    touches most of the graph after a few layers, while low-connectivity
    newcomers (SO/TB) keep the affected fraction nearly constant.
    """
    if graph.num_nodes == 0:
        return 0.0
    csc = coo_to_csc(graph)
    affected = set(sorted_unique(np.asarray(updated_dst, dtype=VID_DTYPE)).tolist())
    frontier = set(affected)
    for _ in range(num_layers):
        next_frontier = set()
        for node in frontier:
            if 0 <= node < csc.num_nodes:
                for nb in csc.in_neighbors(int(node)).tolist():
                    if nb not in affected:
                        affected.add(int(nb))
                        next_frontier.add(int(nb))
        frontier = next_frontier
        if not frontier:
            break
    return len(affected) / graph.num_nodes


def critical_update_ratio(
    graph: COOGraph,
    num_layers: int,
    target_fraction: float = 0.5,
    seed: int = 0,
    max_ratio: float = 0.1,
    steps: int = 8,
) -> float:
    """Smallest update ratio whose ``num_layers``-hop influence reaches ``target_fraction``.

    A bisection over the update ratio, mirroring the paper's "minimum
    graph-update ratio that perturbs GNN outputs" metric (Fig. 29a).
    Returns ``max_ratio`` when even the largest probe falls short.
    """
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, max_ratio
    if graph.num_edges == 0:
        return max_ratio
    result = max_ratio
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        count = max(int(graph.num_edges * mid), 1)
        picked = rng.integers(0, graph.num_edges, size=count)
        ratio = affected_vertex_ratio(graph, graph.dst[picked], num_layers)
        if ratio >= target_fraction:
            result = mid
            hi = mid
        else:
            lo = mid
    return result
