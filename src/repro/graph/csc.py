"""Compressed sparse column (CSC) graph container.

CSC is the vertex-centric structure GNN frameworks traverse during sampling
and aggregation: a *pointer array* indexed by destination VID and an *index
array* of source VIDs (Section II-A, Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.graph.coo import VID_DTYPE


@dataclass
class CSCGraph:
    """A vertex-centric graph in compressed sparse column layout.

    Attributes:
        indptr: pointer array of length ``num_nodes + 1``; ``indptr[v]`` is the
            offset into ``indices`` where destination ``v``'s incoming edges
            start.
        indices: index array of source VIDs, grouped by destination.
        num_nodes: number of vertices.
        name: optional dataset name.

    The arrays are immutable once built: a CSC reshaped from an ordered COO
    shares that graph's source array as ``indices`` (see
    :func:`repro.graph.convert.csc_from_ordered`).  :meth:`copy` is independent.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    name: str = ""

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=VID_DTYPE).ravel()
        self.indices = np.asarray(self.indices, dtype=VID_DTYPE).ravel()
        if self.indptr.shape[0] != self.num_nodes + 1:
            raise ValueError(
                f"indptr must have length num_nodes+1={self.num_nodes + 1}, "
                f"got {self.indptr.shape[0]}"
            )
        if self.indptr.size and int(self.indptr[-1]) != self.indices.shape[0]:
            raise ValueError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={self.indices.shape[0]}"
            )
        if (self.indptr[1:] < self.indptr[:-1]).any():
            raise ValueError("indptr must be non-decreasing")

    # ------------------------------------------------------------------ basic
    @property
    def num_edges(self) -> int:
        """Number of edges stored in the index array."""
        return int(self.indices.shape[0])

    @property
    def avg_degree(self) -> float:
        """Average in-degree per destination vertex."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def __len__(self) -> int:
        return self.num_edges

    # --------------------------------------------------------------- queries
    def in_neighbors(self, dst: int) -> np.ndarray:
        """Return the source VIDs of all edges arriving at ``dst``."""
        if dst < 0 or dst >= self.num_nodes:
            raise IndexError(f"destination VID {dst} out of range")
        start = int(self.indptr[dst])
        end = int(self.indptr[dst + 1])
        return self.indices[start:end]

    def in_degree(self, dst: int) -> int:
        """In-degree of a single destination vertex."""
        if dst < 0 or dst >= self.num_nodes:
            raise IndexError(f"destination VID {dst} out of range")
        return int(self.indptr[dst + 1] - self.indptr[dst])

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for every destination vertex."""
        return np.diff(self.indptr)

    def in_degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """In-degrees of a batch of destination vertices (one indptr slice)."""
        nodes = np.asarray(nodes, dtype=VID_DTYPE)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise IndexError("destination VID out of range")
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def in_neighbors_batch(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather the in-neighbour lists of many destinations at once.

        Returns ``(flat, offsets)`` where ``flat`` concatenates the neighbour
        arrays of ``nodes`` in order and ``offsets`` (length ``len(nodes)+1``)
        delimits them: node ``i``'s neighbours are
        ``flat[offsets[i]:offsets[i+1]]``.  The gather is pure ``indptr``
        arithmetic (no per-node Python loop): each segment's positions are the
        segment start repeated plus a running within-segment offset.
        """
        nodes = np.asarray(nodes, dtype=VID_DTYPE)
        degs = self.in_degrees_of(nodes)
        offsets = np.zeros(nodes.shape[0] + 1, dtype=VID_DTYPE)
        np.cumsum(degs, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return np.empty(0, dtype=VID_DTYPE), offsets
        starts = self.indptr[nodes]
        flat_idx = np.repeat(starts - offsets[:-1], degs) + np.arange(total, dtype=VID_DTYPE)
        return self.indices[flat_idx], offsets

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(src, dst)`` pairs in destination-major order."""
        for dst in range(self.num_nodes):
            for src in self.in_neighbors(dst).tolist():
                yield int(src), dst

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in destination-major order."""
        dst = np.repeat(np.arange(self.num_nodes, dtype=VID_DTYPE), self.in_degrees())
        return self.indices.copy(), dst

    def nbytes(self) -> int:
        """Approximate in-memory size of the pointer + index arrays in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def validate(self) -> None:
        """Raise ``ValueError`` if the structure is internally inconsistent."""
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise ValueError("index array contains out-of-range source VIDs")
        if int(self.indptr[0]) != 0:
            raise ValueError("indptr must start at 0")

    def copy(self) -> "CSCGraph":
        """Deep copy of the pointer and index arrays."""
        return CSCGraph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            num_nodes=self.num_nodes,
            name=self.name,
        )

    @classmethod
    def empty(cls, num_nodes: int, name: str = "") -> "CSCGraph":
        """Create a CSC graph with no edges."""
        return cls(
            indptr=np.zeros(num_nodes + 1, dtype=VID_DTYPE),
            indices=np.empty(0, dtype=VID_DTYPE),
            num_nodes=num_nodes,
            name=name,
        )
