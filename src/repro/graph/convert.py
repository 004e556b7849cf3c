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
    return _pointers_from_degrees(counts)


def _pointers_from_degrees(degrees: np.ndarray) -> np.ndarray:
    """The pointer array whose gaps are ``degrees`` (a leading zero, then the cumsum)."""
    indptr = np.zeros(degrees.shape[0] + 1, dtype=VID_DTYPE)
    np.cumsum(degrees, out=indptr[1:])
    return indptr


def merge_edge_order(
    ordered: COOGraph, src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> COOGraph:
    """The ordered layout of ``ordered``'s edges plus ``(src, dst)``, without a full sort.

    ``ordered`` is an :func:`edge_order` result; the merged graph has
    ``num_nodes`` vertices (at least ``ordered.num_nodes``) and equals
    :func:`edge_order` of any graph holding the same edges.  Only the added
    keys are sorted; their positions among the old keys, recomputed at
    ``vid_bits(num_nodes)``, come from one binary search.  The merged graph
    also carries its in-degrees (the old ones padded to ``num_nodes`` plus
    the added edges' counts), from which :func:`csc_from_ordered` takes the
    pointer array.
    """
    added = np.sort(pack_keys(src, dst, num_nodes))
    positions = np.searchsorted(pack_keys(ordered.src, ordered.dst, num_nodes), added)
    added_src, added_dst = COOGraph.deconcatenate_vids(added, num_nodes)
    merged = COOGraph(
        src=np.insert(ordered.src, positions, added_src),
        dst=np.insert(ordered.dst, positions, added_dst),
        num_nodes=num_nodes,
        name=ordered.name,
        validate_vids=False,
    )
    degrees = np.bincount(dst, minlength=num_nodes)
    degrees[: ordered.num_nodes] += ordered.in_degrees()
    merged._degree_cache = degrees
    return merged


def csc_from_ordered(ordered: COOGraph, indptr: Optional[np.ndarray] = None) -> CSCGraph:
    """Data reshaping: the CSC of a destination-sorted COO.

    ``indptr`` is a pointer array already built for ``ordered`` (by an
    emulated reshaper, say).  By default it is the cumsum of ``ordered``'s
    in-degrees when they are cached (a :func:`merge_edge_order` result
    carries them), else :func:`build_pointer_array`'s.  The index array is
    ``ordered.src`` itself, not a copy: graph arrays are immutable once built.
    """
    if indptr is None:
        degrees = ordered._degree_cache
        if degrees is None:
            indptr = build_pointer_array(ordered.dst, ordered.num_nodes)
        else:
            indptr = _pointers_from_degrees(degrees)
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


def validate_conversion(coo: COOGraph, csc: CSCGraph) -> bool:
    """Return True when ``csc`` is a faithful conversion of ``coo``.

    The check is order-insensitive on the COO side: the multiset of edges must
    match and the CSC must be internally consistent.
    """
    csc.validate()
    if coo.num_edges != csc.num_edges or coo.num_nodes != csc.num_nodes:
        return False
    ref = coo_to_csc(coo)
    if not np.array_equal(ref.indptr, csc.indptr):
        return False
    # Within a destination group, source order may legitimately differ between
    # implementations; compare groups as multisets.
    for dst in range(csc.num_nodes):
        a = np.sort(ref.in_neighbors(dst))
        b = np.sort(csc.in_neighbors(dst))
        if not np.array_equal(a, b):
            return False
    return True
