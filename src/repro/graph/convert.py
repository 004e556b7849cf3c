"""Reference graph-format conversion (COO <-> CSC).

These are the pure-software reference implementations of the two graph
conversion tasks the paper decomposes (Section II-B): *edge ordering* (sort
edges by destination then source) and *data reshaping* (build the CSC pointer
array from the sorted edge array).  Every hardware/baseline implementation in
the repo is checked against these functions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE, pack_keys
from repro.graph.csc import CSCGraph


def edge_order(graph: COOGraph) -> COOGraph:
    """Sort edges by destination VID, breaking ties by source VID.

    This produces the layout that data reshaping turns into CSC: edges sharing
    a destination are contiguous, and within a destination sources ascend.
    Sorting the concatenated ``(dst, src)`` keys with a single-key sort is
    equivalent to ``np.lexsort((src, dst))`` (destination occupies the high
    bits) and several times faster.

    A snapshot built by :meth:`repro.graph.dynamic.DynamicGraph.apply`
    carries its ordered layout, merged from the previous snapshot's by
    :func:`merge_edge_order`; that layout is returned as is.  Any other graph
    is sorted afresh on every call, and nothing is cached on it.
    """
    if graph._ordered is not None:
        return graph._ordered
    keys = np.sort(graph.concatenate_vids())
    src, dst = COOGraph.deconcatenate_vids(keys, graph.num_nodes)
    # A permutation of already-validated edges needs no range re-check.
    return graph.with_edges(src, dst, validate=False)


def build_pointer_array(sorted_dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Build the CSC pointer array from a destination-sorted edge array.

    ``pointer[v]`` equals the number of edges whose destination VID is strictly
    smaller than ``v`` — exactly the set-counting formulation of Section IV-A.
    """
    sorted_dst = np.asarray(sorted_dst, dtype=VID_DTYPE)
    counts = np.bincount(sorted_dst, minlength=num_nodes) if sorted_dst.size else np.zeros(
        num_nodes, dtype=VID_DTYPE
    )
    indptr = np.zeros(num_nodes + 1, dtype=VID_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def merge_edge_order(
    ordered: COOGraph, src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> COOGraph:
    """The ordered layout of ``ordered``'s edges plus ``(src, dst)``, without a full sort.

    ``ordered`` is an :func:`edge_order` result; the merged graph has
    ``num_nodes`` vertices (at least ``ordered.num_nodes``) and equals
    :func:`edge_order` of any graph holding the same edges.  Only the added
    keys are sorted.  Each added edge ``(d, s)`` is placed by a binary search
    for the leftmost ``s`` among the sources of ``d``'s run, which the
    layout's pointer array bounds (destinations the layout does not have go
    to the end), so no key is packed for the old edges; all searches step
    together.  The places are exactly ``np.searchsorted`` of the added keys
    among the old ones.  The merged graph carries its pointer array, the old
    one shifted by the batch's counts, which :func:`csc_from_ordered` takes
    as is and the next merge searches in.
    """
    indptr = ordered._indptr
    if indptr is None:
        indptr = build_pointer_array(ordered.dst, ordered.num_nodes)
    added = np.sort(pack_keys(src, dst, num_nodes))
    added_src, added_dst = COOGraph.deconcatenate_vids(added, num_nodes)
    positions = _run_positions(ordered.src, indptr, added_src, added_dst)
    merged = COOGraph(
        src=np.insert(ordered.src, positions, added_src),
        dst=np.insert(ordered.dst, positions, added_dst),
        num_nodes=num_nodes,
        name=ordered.name,
        validate_vids=False,
    )
    # The added destinations are sorted, so the batch's shift of pointer v,
    # its count of destinations below v, is one repeat of 0..len(added).
    bounds = np.concatenate(([0], added_dst + 1, [num_nodes + 1]))
    pointers = np.repeat(np.arange(added.shape[0] + 1, dtype=VID_DTYPE), np.diff(bounds))
    pointers[: indptr.shape[0]] += indptr
    pointers[indptr.shape[0] :] += indptr[-1]
    merged._indptr = pointers
    return merged


def _run_positions(
    sources: np.ndarray, indptr: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Leftmost place of each ``(dst, src)`` among a layout's (dst, src)-sorted edges.

    ``sources`` and ``indptr`` are the layout's sources and pointer array.
    Every edge bisects its own destination's run, ``sources[indptr[d]:
    indptr[d + 1]]``; one vectorised step halves every run at once, so the
    loop takes about log2 of the largest in-degree steps.
    """
    last = indptr.shape[0] - 1
    lo = indptr[np.minimum(dst, last)]
    hi = indptr[np.minimum(dst + 1, last)]
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        below = sources[np.minimum(mid, sources.shape[0] - 1)] < src
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
        active = lo < hi
    return lo


def csc_from_ordered(ordered: COOGraph, indptr: Optional[np.ndarray] = None) -> CSCGraph:
    """Data reshaping: the CSC of a destination-sorted COO.

    ``indptr`` is a pointer array already built for ``ordered`` (by an
    emulated reshaper, say).  By default it is the pointer array ``ordered``
    carries (an update-stream layout does, see :func:`merge_edge_order`),
    else :func:`build_pointer_array`'s.  The index array is ``ordered.src``
    itself, not a copy: graph arrays are immutable once built.
    """
    if indptr is None:
        indptr = ordered._indptr
    if indptr is None:
        indptr = build_pointer_array(ordered.dst, ordered.num_nodes)
    return CSCGraph(
        indptr=indptr,
        indices=ordered.src,
        num_nodes=ordered.num_nodes,
        name=ordered.name,
    )


def coo_to_csc(graph: COOGraph) -> CSCGraph:
    """Convert a COO graph to CSC (edge ordering followed by data reshaping)."""
    return csc_from_ordered(edge_order(graph))


def csc_to_coo(graph: CSCGraph) -> COOGraph:
    """Convert a CSC graph back to COO (destination-major edge order)."""
    src, dst = graph.edge_arrays()
    return COOGraph(src=src, dst=dst, num_nodes=graph.num_nodes, name=graph.name)
