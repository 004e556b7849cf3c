"""Subgraph reindexing: reference hash-map loop and vectorized fast path.

After sampling, the subgraph's original VIDs must be renumbered to a compact
``[0, num_sampled)`` range so the extracted embedding table lines up with the
new indices (Section II-B, Fig. 4b).  The reference implementation walks the
edge list with a hash map; the vectorized fast path reproduces the exact same
first-encounter numbering through a single ``np.unique`` factorization (both
the SCR reindexer and the fast path are verified bit-exact against the
reference — see DESIGN.md, "Reference vs. vectorized fast path").  Every
call numbers from an empty mapping.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.sampling import MODE_REFERENCE, MODE_VECTORIZED, SampledSubgraph, check_mode


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

    This is the order the hardware reindexer (and the reference loop) assigns
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
    ``[0, num_vids)``) and the bound is not wildly larger than the input, an
    O(n) scatter through a lookup table is used; otherwise a sort-based
    ``np.unique`` factorization.  Both paths are bit-identical.
    """
    values = np.asarray(values, dtype=VID_DTYPE)
    n = int(values.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=VID_DTYPE)
    if num_vids is not None and 0 < num_vids <= max(4 * n, 1024):
        # Scatter positions in reverse: with duplicate indices the last write
        # wins, so each VID's slot ends up holding its *first* occurrence.
        positions = np.arange(n, dtype=np.int64)
        first_pos = np.empty(num_vids, dtype=np.int64)
        first_pos[values[::-1]] = positions[::-1]
        is_first = first_pos[values] == positions
        originals = values[is_first]
        code_lut = np.empty(num_vids, dtype=np.int64)
        code_lut[originals] = np.arange(originals.shape[0], dtype=np.int64)
        return code_lut[values], originals
    uniques, first_index, inverse = np.unique(values, return_index=True, return_inverse=True)
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(appearance.shape[0], dtype=np.int64)
    rank[appearance] = np.arange(appearance.shape[0], dtype=np.int64)
    return rank[inverse.ravel()], uniques[appearance]


def reindex_mapping_sizes(codes: np.ndarray) -> np.ndarray:
    """Mapping occupancy seen by each endpoint lookup, in closed form.

    ``sizes[i]`` is the number of mappings resident when endpoint ``i`` is
    looked up (at least 1: an empty SRAM bank still takes one scan).  Because
    ``codes`` are first-appearance ranks, the occupancy before position ``i``
    is ``max(codes[:i]) + 1``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    running_max = np.maximum.accumulate(codes)
    sizes = np.empty(codes.shape[0], dtype=np.int64)
    sizes[0] = 1
    sizes[1:] = running_max[:-1] + 1
    return sizes


# ---------------------------------------------------------------------------
# Reindexing entry points
# ---------------------------------------------------------------------------
def reindex_edges_reference(
    src: np.ndarray, dst: np.ndarray, mapping: Dict[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge hash-map walk assigning IDs in (dst, src) scan order.

    The verification reference the vectorized factorization and the SCR
    kernel are both held bit-exact against; ``mapping`` is filled in place.
    """
    new_src = np.empty_like(src)
    new_dst = np.empty_like(dst)
    for i in range(src.shape[0]):
        for arr, out in ((dst, new_dst), (src, new_src)):
            vid = int(arr[i])
            if vid not in mapping:
                mapping[vid] = len(mapping)
            out[i] = mapping[vid]
    return new_src, new_dst


def reindex_edges(
    src: np.ndarray,
    dst: np.ndarray,
    mode: str = MODE_VECTORIZED,
    num_vids: Optional[int] = None,
) -> ReindexResult:
    """Renumber the VIDs of an edge list to a dense ``[0, n)`` range.

    New IDs are assigned in first-encounter order while scanning the
    destination array then the source array edge by edge — the same order the
    hardware reindexer processes the uni-random selection output, so results
    are directly comparable.  Both modes produce bit-identical results.
    ``num_vids`` optionally bounds the VID range, enabling the O(n)
    lookup-table factorization.
    """
    check_mode(mode)
    src = np.asarray(src, dtype=VID_DTYPE)
    dst = np.asarray(dst, dtype=VID_DTYPE)
    mapping: Optional[Dict[int, int]] = None
    if mode == MODE_REFERENCE:
        mapping = {}
        new_src, new_dst = reindex_edges_reference(src, dst, mapping)
        original = np.empty(len(mapping), dtype=VID_DTYPE)
        for vid, new in mapping.items():
            original[new] = vid
    else:
        codes, original = factorize_first_occurrence(
            interleave_endpoints(src, dst), num_vids=num_vids
        )
        new_dst = codes[0::2].astype(VID_DTYPE, copy=False)
        new_src = codes[1::2].astype(VID_DTYPE, copy=False)
    num_nodes = int(original.shape[0])
    edges = COOGraph(
        src=new_src,
        dst=new_dst,
        num_nodes=max(num_nodes, 1),
        name="reindexed",
        validate_vids=False,
    )
    return ReindexResult(mapping=mapping, edges=edges, original_vids=original)


def reindex_subgraph(sample: SampledSubgraph, mode: str = MODE_VECTORIZED) -> ReindexResult:
    """Reindex all layers of a sampled subgraph into one compact edge list."""
    combined = sample.all_edges()
    return reindex_edges(combined.src, combined.dst, mode=mode, num_vids=combined.num_nodes)


def gather_embeddings(embeddings: np.ndarray, result: ReindexResult) -> np.ndarray:
    """Extract the embedding rows of the sampled vertices, in new-VID order.

    ``embeddings`` is the original embedding table indexed by original VID;
    the returned table is indexed by the compact reindexed VID.
    """
    return embeddings[result.original_vids]
