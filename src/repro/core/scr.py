"""Single-Cycle Reducer (SCR).

An SCR executes *set-counting*: a bank of comparators evaluates every element
of an input segment against a target in parallel and a reduction tree
aggregates the per-lane results in a single cycle (Section IV-C, Fig. 13).
With an adder tree the SCR counts matches (data reshaping: one pointer-array
entry per count); with a filter tree (OR reduction) it returns the matching
payload (subgraph reindexing: looking up a VID's renumbered ID without a hash
map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.coo import VID_DTYPE


@dataclass
class ComparatorBank:
    """A row of ``width`` comparators, each ``vid_bits`` wide.

    For reshaping the comparator reports whether ``element - target >= 0``
    (i.e. element >= target); for reindexing it reports exact equality.
    """

    width: int
    vid_bits: int = 32

    def compare_ge(self, elements: np.ndarray, target: int) -> np.ndarray:
        """Element-wise ``element >= target`` over one segment (one cycle)."""
        elements = np.asarray(elements, dtype=np.int64)
        if elements.shape[0] > self.width:
            raise ValueError(
                f"segment of {elements.shape[0]} elements exceeds SCR width {self.width}"
            )
        return elements >= target

    def compare_eq(self, elements: np.ndarray, target: int) -> np.ndarray:
        """Element-wise ``element == target`` over one segment (one cycle)."""
        elements = np.asarray(elements, dtype=np.int64)
        if elements.shape[0] > self.width:
            raise ValueError(
                f"segment of {elements.shape[0]} elements exceeds SCR width {self.width}"
            )
        return elements == target


@dataclass
class AdderTree:
    """Adder tree reducing ``width`` one-bit comparator outputs to a count."""

    width: int

    @property
    def depth(self) -> int:
        """Number of adder layers (``log2(width)``)."""
        return max(int(math.ceil(math.log2(self.width))), 1) if self.width > 1 else 1

    @property
    def output_bits(self) -> int:
        """Bit width of the root adder (``log2(width)`` as in the paper)."""
        return max(int(math.ceil(math.log2(self.width + 1))), 1)

    def reduce(self, bits: np.ndarray) -> int:
        """Sum the comparator outputs (a single-cycle reduction)."""
        return int(np.asarray(bits, dtype=np.int64).sum())


@dataclass
class FilterTree:
    """OR tree that forwards the payload of the (unique) matching lane.

    Each lane carries ``payload_bits + 1`` bits: the payload plus a hit flag,
    matching the paper's ``32 + 1``-bit filter-tree width for VIDs.
    """

    width: int
    payload_bits: int = 32

    @property
    def depth(self) -> int:
        """Number of OR layers."""
        return max(int(math.ceil(math.log2(self.width))), 1) if self.width > 1 else 1

    @property
    def lane_bits(self) -> int:
        """Bits per lane: payload plus the hit indicator."""
        return self.payload_bits + 1

    def reduce(self, hits: np.ndarray, payloads: np.ndarray) -> Tuple[bool, int]:
        """Return ``(hit, payload)`` of the matching lane (single cycle).

        If several lanes hit (which the reindexer's uniqueness invariant rules
        out), the OR tree returns the bitwise OR of their payloads, mirroring
        the hardware behaviour.
        """
        hits = np.asarray(hits, dtype=bool)
        payloads = np.asarray(payloads, dtype=np.int64)
        if not hits.any():
            return False, 0
        value = 0
        for payload in payloads[hits]:
            value |= int(payload)
        return True, value


@dataclass
class SCRStats:
    """Cycle and work counters accumulated by an SCR-driven controller."""

    cycles: int = 0
    comparisons: int = 0
    segments: int = 0

    def merge(self, other: "SCRStats") -> None:
        """Accumulate another stats object into this one."""
        self.cycles += other.cycles
        self.comparisons += other.comparisons
        self.segments += other.segments


class SCR:
    """One Single-Cycle Reducer slot: comparator bank plus reduction trees."""

    def __init__(self, width: int = 4096, vid_bits: int = 32) -> None:
        if width <= 0:
            raise ValueError("SCR width must be positive")
        self.width = int(width)
        self.comparators = ComparatorBank(width=self.width, vid_bits=vid_bits)
        self.adder_tree = AdderTree(width=self.width)
        self.filter_tree = FilterTree(width=self.width, payload_bits=vid_bits)
        self.cycles_consumed = 0

    def reset_cycles(self) -> None:
        """Zero the cycle counter."""
        self.cycles_consumed = 0

    def count_ge(self, segment: np.ndarray, target: int) -> int:
        """Count elements of ``segment`` that are >= ``target`` in one cycle."""
        bits = self.comparators.compare_ge(segment, target)
        self.cycles_consumed += 1
        return self.adder_tree.reduce(bits)

    def count_lt(self, segment: np.ndarray, target: int) -> int:
        """Count elements strictly smaller than ``target`` in one cycle."""
        bits = self.comparators.compare_ge(segment, target)
        self.cycles_consumed += 1
        return int(bits.shape[0]) - self.adder_tree.reduce(bits)

    def lookup(self, keys: np.ndarray, payloads: np.ndarray, target: int) -> Tuple[bool, int]:
        """Search for ``target`` among ``keys`` and return its payload (one cycle)."""
        hits = self.comparators.compare_eq(keys, target)
        self.cycles_consumed += 1
        return self.filter_tree.reduce(hits, np.asarray(payloads, dtype=np.int64))


class Reshaper:
    """SCR-kernel controller that builds the CSC pointer array (data reshaping).

    The reshaper streams the destination column of the sorted COO through the
    SCR slots segment by segment.  For each segment of ``scr_width`` edges the
    ``num_scrs`` slots each count, for one target VID, how many edges in the
    segment have a destination strictly smaller than the target; accumulating
    those counts over all segments yields ``pointer[v] = #edges with dst < v``
    — the set-counting formulation of Section IV-A.

    Cycle accounting: every (segment, group of ``num_scrs`` targets) pair costs
    one cycle, so the total is ``ceil(e / scr_width) * ceil(n / num_scrs)``
    bounded below by the cost-model envelope ``max(e / w_scr, n / n_scr)`` when
    the two dimensions overlap perfectly; the controller overlaps them by
    advancing targets and segments together exactly as described in the paper
    (targets and COO elements are consumed in lockstep because the COO is
    sorted), giving ``max(ceil(e / w_scr), ceil(n / n_scr))`` plus edge effects.
    """

    def __init__(self, scrs: List[SCR]) -> None:
        if not scrs:
            raise ValueError("reshaper needs at least one SCR slot")
        self.scrs = scrs
        self.stats = SCRStats()

    @property
    def num_scrs(self) -> int:
        """Number of SCR slots available to the reshaper."""
        return len(self.scrs)

    @property
    def scr_width(self) -> int:
        """Comparator lanes per slot."""
        return self.scrs[0].width

    def build_pointer_array(self, sorted_dst: np.ndarray, num_nodes: int) -> np.ndarray:
        """Build the CSC pointer array from the destination-sorted edge column."""
        sorted_dst = np.asarray(sorted_dst, dtype=np.int64).ravel()
        num_edges = int(sorted_dst.shape[0])
        width = self.scr_width
        slots = self.num_scrs

        counts = np.zeros(num_nodes + 1, dtype=np.int64)

        num_segments = max(int(math.ceil(num_edges / width)), 1) if num_edges else 0
        # Walk segments and targets in lockstep: a segment only contributes to
        # targets that can still change (sorted order lets us skip the rest).
        target = 0
        consumed_cycles = 0
        for seg_index in range(num_segments):
            seg = sorted_dst[seg_index * width : (seg_index + 1) * width]
            seg_max = int(seg[-1])
            # Targets below ``target`` were finalised by earlier segments:
            # every edge in this segment has a destination at least as large,
            # so it contributes nothing to their strict "< target" counts.
            first_target = target
            last_target = min(seg_max + 1, num_nodes)
            t = first_target
            while t <= last_target:
                group = list(range(t, min(t + slots, last_target + 1)))
                for slot, tgt in zip(self.scrs, group):
                    smaller = slot.count_lt(seg, tgt)
                    counts[tgt] += smaller
                    self.stats.comparisons += int(seg.shape[0])
                consumed_cycles += 1
                t += slots
            # Edges in this segment are all strictly smaller than any target
            # beyond last_target; add them wholesale to the remaining targets.
            counts[last_target + 1 :] += int(seg.shape[0])
            target = last_target
            self.stats.segments += 1

        self.stats.cycles += consumed_cycles
        indptr = counts
        indptr[0] = 0
        # counts[v] currently holds "#edges with dst < v" for v in [0, n].
        return indptr[: num_nodes + 1].astype(VID_DTYPE)


class Reindexer:
    """SCR-kernel controller that renumbers sampled VIDs (subgraph reindexing).

    The reindexer keeps two arrays in its SRAM bank — original VIDs and their
    renumbered IDs — plus a counter of mappings created so far.  For each
    input VID an SCR checks in a single cycle whether the VID already has a
    mapping (filter-tree lookup over the SRAM contents); on a miss the counter
    value becomes the new ID and the pair is appended (Fig. 13c).
    """

    def __init__(self, scr: SCR, sram_capacity: int = 1 << 20) -> None:
        self.scr = scr
        self.sram_capacity = int(sram_capacity)
        self.original: List[int] = []
        self.renumbered: List[int] = []
        self.counter = 0
        self.stats = SCRStats()

    def reset(self) -> None:
        """Clear the mapping SRAM and counters."""
        self.original.clear()
        self.renumbered.clear()
        self.counter = 0
        self.stats = SCRStats()

    @property
    def mapping(self) -> Dict[int, int]:
        """The current original-to-new VID mapping as a dictionary."""
        return dict(zip(self.original, self.renumbered))

    def lookup_or_insert(self, vid: int) -> int:
        """Return the renumbered ID of ``vid``, creating a new mapping on a miss."""
        if len(self.original) >= self.sram_capacity:
            raise MemoryError("reindexer SRAM bank is full")
        keys = np.asarray(self.original, dtype=np.int64)
        payloads = np.asarray(self.renumbered, dtype=np.int64)
        hit = False
        value = 0
        if keys.shape[0] == 0:
            # An empty SRAM bank still takes one cycle to report a miss.
            self.stats.cycles += 1
        # Every resident mapping is scanned, hit or miss: the controller has
        # no early exit, which is what ``reindexing_cycle_count`` charges.
        for chunk_start in range(0, keys.shape[0], self.scr.width):
            chunk_keys = keys[chunk_start : chunk_start + self.scr.width]
            chunk_payloads = payloads[chunk_start : chunk_start + self.scr.width]
            found, payload = self.scr.lookup(chunk_keys, chunk_payloads, int(vid))
            self.stats.cycles += 1
            self.stats.comparisons += int(chunk_keys.shape[0])
            if found:
                hit, value = True, payload
        if hit:
            return int(value)
        new_id = self.counter
        self.original.append(int(vid))
        self.renumbered.append(new_id)
        self.counter += 1
        return new_id

    def reindex_edges(self, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Renumber an edge list, processing destination then source per edge.

        The scan order of the hash-map oracle
        :func:`repro.graph.reindex.reindex_edges_reference`, so the IDs equal
        its mapping and each lookup scans the occupancy the oracle records.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        new_src = np.empty_like(src)
        new_dst = np.empty_like(dst)
        for i in range(src.shape[0]):
            new_dst[i] = self.lookup_or_insert(int(dst[i]))
            new_src[i] = self.lookup_or_insert(int(src[i]))
        return new_src.astype(VID_DTYPE), new_dst.astype(VID_DTYPE)

    def original_vids(self) -> np.ndarray:
        """Original VIDs ordered by their renumbered ID."""
        result = np.empty(len(self.original), dtype=VID_DTYPE)
        for orig, new in zip(self.original, self.renumbered):
            result[new] = orig
        return result
