"""Subgraph reindexing: the vectorized fast path and its hash-map oracle.

After sampling, the subgraph's original VIDs must be renumbered to a compact
``[0, num_sampled)`` range so the extracted embedding table lines up with the
new indices (Section II-B, Fig. 4b).  :func:`reindex_edges` assigns the
first-encounter numbering of a hash-map walk through one first-occurrence
factorization of the endpoint stream.  :func:`reindex_edges_reference` is
that walk, the oracle that tests and the preprocessing bench hold the fast
path, its closed-form reindexing charge and the SCR reindexer to (see DESIGN.md,
"The fast path and its oracles").  Every call numbers from an empty mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.sampling import SampledSubgraph, dense_vid_range


class ReindexResult:
    """Output of subgraph reindexing.

    Attributes:
        mapping: dict from original VID to new compact VID, in first-seen
            order.  Built lazily from ``original_vids`` when not supplied, so
            the fast path never pays for a dictionary nobody reads.
        edges: the reindexed subgraph edges in COO format (new VIDs).
        original_vids: array such that ``original_vids[new_vid]`` recovers the
            original VID; this is the order embeddings must be gathered in.
    """

    def __init__(
        self,
        mapping: Optional[Dict[int, int]] = None,
        edges: Optional[COOGraph] = None,
        original_vids: Optional[np.ndarray] = None,
    ) -> None:
        self._mapping = mapping
        self.edges = edges
        self.original_vids = original_vids

    @property
    def mapping(self) -> Dict[int, int]:
        """Original-to-new VID dictionary (materialised on first access)."""
        if self._mapping is None:
            self._mapping = dict(
                zip(self.original_vids.tolist(), range(self.original_vids.shape[0]))
            )
        return self._mapping

    @property
    def num_sampled_nodes(self) -> int:
        """Number of distinct vertices in the reindexed subgraph."""
        return int(self.original_vids.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReindexResult(num_sampled_nodes={self.num_sampled_nodes}, "
            f"edges={self.edges!r})"
        )


# ---------------------------------------------------------------------------
# Vectorized building blocks (shared with the SCR kernel)
# ---------------------------------------------------------------------------
def interleave_endpoints(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Endpoint stream in reindexer scan order: ``dst[0], src[0], dst[1], ...``.

    This is the order the hardware reindexer (and the oracle's walk) assigns
    new IDs in, so factorizing this stream reproduces the same numbering.
    """
    src = np.asarray(src, dtype=VID_DTYPE)
    dst = np.asarray(dst, dtype=VID_DTYPE)
    out = np.empty(src.shape[0] * 2, dtype=VID_DTYPE)
    out[0::2] = dst
    out[1::2] = src
    return out


def factorize_first_occurrence(
    values: np.ndarray, num_vids: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense codes in first-appearance order; returns ``(codes, originals)``.

    ``codes[i]`` is the rank of ``values[i]`` among the distinct values ordered
    by first appearance, and ``originals[code]`` recovers the value — exactly
    the numbering a first-encounter hash map produces, without a per-element
    loop.  When ``num_vids`` bounds the value range (VIDs live in
    ``[0, num_vids)``, else :class:`ValueError`) and
    :func:`~repro.graph.sampling.dense_vid_range` holds, an O(n) scatter
    through one lookup table is used; otherwise a sort-based ``np.unique``
    factorization.  Both paths are bit-identical (int64 codes).
    """
    values = np.asarray(values, dtype=VID_DTYPE)
    n = int(values.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=VID_DTYPE)
    if num_vids is not None and (values.min() < 0 or values.max() >= num_vids):
        raise ValueError(f"values must lie in [0, num_vids) = [0, {num_vids})")
    if num_vids is not None and dense_vid_range(num_vids, n):
        # Positions and codes are below n, so the one table can be int32.
        dtype = np.int32 if n < 2**31 else np.int64
        positions = np.arange(n, dtype=dtype)
        table = np.empty(num_vids, dtype=dtype)
        # Scatter positions in reverse: with duplicate indices the last write
        # wins, so each VID's slot ends up holding its *first* occurrence.
        table[values[::-1]] = positions[::-1]
        originals = values[table[values] == positions]
        # The same table then maps each distinct VID to its code.
        table[originals] = np.arange(originals.shape[0], dtype=dtype)
        return table[values].astype(np.int64), originals
    uniques, first_index, inverse = np.unique(values, return_index=True, return_inverse=True)
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(appearance.shape[0], dtype=np.int64)
    rank[appearance] = np.arange(appearance.shape[0], dtype=np.int64)
    return rank[inverse.ravel()], uniques[appearance]


# ---------------------------------------------------------------------------
# Reindexing entry points
# ---------------------------------------------------------------------------
def reindexed_result(
    new_src: np.ndarray,
    new_dst: np.ndarray,
    original_vids: np.ndarray,
    mapping: Optional[Dict[int, int]] = None,
) -> ReindexResult:
    """Wrap renumbered endpoints and ``original_vids`` as a :class:`ReindexResult`."""
    edges = COOGraph(
        src=new_src,
        dst=new_dst,
        num_nodes=max(int(original_vids.shape[0]), 1),
        name="reindexed",
        validate_vids=False,
    )
    return ReindexResult(mapping=mapping, edges=edges, original_vids=original_vids)


def reindex_edges(
    src: np.ndarray, dst: np.ndarray, num_vids: Optional[int] = None
) -> ReindexResult:
    """Renumber the VIDs of an edge list to a dense ``[0, n)`` range.

    New IDs are assigned in first-encounter order while scanning the
    destination array then the source array edge by edge — the same order the
    hardware reindexer processes the uni-random selection output, so results
    are directly comparable.  ``num_vids`` optionally bounds the VID range,
    enabling the O(n) lookup-table factorization.
    """
    codes, original = factorize_first_occurrence(
        interleave_endpoints(src, dst), num_vids=num_vids
    )
    return reindexed_result(
        codes[1::2].astype(VID_DTYPE, copy=False),
        codes[0::2].astype(VID_DTYPE, copy=False),
        original,
    )


def reindex_edges_reference(
    src: np.ndarray, dst: np.ndarray
) -> Tuple[ReindexResult, np.ndarray]:
    """Per-edge hash-map walk: the oracle of :func:`reindex_edges`.

    Assigns IDs in (dst, src) scan order from an empty mapping and records the
    occupancy each lookup sees: ``len(mapping)`` before it, at least 1 (an
    empty SRAM bank still takes one scan).  Returns ``(result, occupancy)``;
    ``reindexing_cycle_count(occupancy, config)`` is the reindexing charge,
    which the SCR kernel's fast path computes in closed form instead
    (``repro.core.kernels.reindexing_cycles_of``).
    """
    src = np.asarray(src, dtype=VID_DTYPE)
    dst = np.asarray(dst, dtype=VID_DTYPE)
    mapping: Dict[int, int] = {}
    occupancy: List[int] = []
    new_src = np.empty_like(src)
    new_dst = np.empty_like(dst)
    for i in range(src.shape[0]):
        for arr, out in ((dst, new_dst), (src, new_src)):
            vid = int(arr[i])
            occupancy.append(len(mapping))
            if vid not in mapping:
                mapping[vid] = len(mapping)
            out[i] = mapping[vid]
    # Dicts keep insertion order, which is new-ID order.
    original = np.array(list(mapping), dtype=VID_DTYPE)
    result = reindexed_result(new_src, new_dst, original, mapping=mapping)
    return result, np.maximum(np.array(occupancy, dtype=np.int64), 1)


def reindex_subgraph(sample: SampledSubgraph) -> ReindexResult:
    """Reindex all layers of a sampled subgraph into one compact edge list."""
    combined = sample.all_edges()
    return reindex_edges(combined.src, combined.dst, num_vids=combined.num_nodes)


def gather_embeddings(embeddings: np.ndarray, result: ReindexResult) -> np.ndarray:
    """Extract the embedding rows of the sampled vertices, in new-VID order.

    ``embeddings`` is the original embedding table indexed by original VID;
    the returned table is indexed by the compact reindexed VID.
    """
    return embeddings[result.original_vids]
