"""Unified Processing Element (UPE).

A UPE executes *set-partitioning*: given a node array and a boolean condition
array it extracts the elements that satisfy the condition into a compacted
output, using a prefix-sum network to compute each element's destination
offset and a relocation (routing) network to move it there (Section IV-C,
Fig. 12).  The same datapath serves edge ordering (radix-sort digit passes)
and unique random selection (splitting sampled from unsampled vertices).

The classes below emulate the datapath faithfully at element granularity and
charge cycles according to its structure: the prefix-sum network has
``log2(width)`` adder layers and the relocation network ``log2(width)``
routing layers, and a whole pass over one chunk is pipelined so it retires in
a constant number of cycles independent of the chunk width.  Only the
kernels' ``detailed`` datapath emulation drives a UPE, so it has no NumPy
shortcut of its own; the fast kernels charge the same cycles in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


#: Cycles charged for one pipelined set-partition pass over a chunk: one for
#: the prefix-sum network and one for the relocation network.  The paper
#: reports that each network "can process hundreds of elements in a single
#: cycle"; latency of the log-depth networks is hidden by pipelining across
#: chunks, so throughput is what matters.
CYCLES_PER_PARTITION_PASS: int = 2

#: Radix digit width (bits consumed per set-partition pass of the radix sort).
DEFAULT_RADIX_BITS: int = 8


@dataclass
class SetPartitionResult:
    """Output of one set-partition pass.

    Attributes:
        selected: elements whose condition was true, compacted, original order
            preserved.
        rejected: the remaining elements, original order preserved.
        displacement: exclusive prefix-sum array (each true element's write
            index within ``selected``).
        cycles: cycles consumed by the pass.
    """

    selected: np.ndarray
    rejected: np.ndarray
    displacement: np.ndarray
    cycles: int


class PrefixSumLogic:
    """Hierarchical adder network producing exclusive prefix sums of booleans.

    The network has ``log2(width)`` layers; layer ``d`` adds the value of the
    neighbour ``2**d`` positions to the left (a Hillis-Steele scan), exactly
    the structure sketched in Fig. 12b.  Adders are ``log2(width)`` bits wide
    because the inputs are booleans.
    """

    def __init__(self, width: int) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError("prefix-sum width must be a positive power of two")
        self.width = width

    @property
    def num_layers(self) -> int:
        """Depth of the adder network."""
        return int(math.log2(self.width)) if self.width > 1 else 1

    @property
    def adder_bits(self) -> int:
        """Bit width of each adder (enough to count ``width`` booleans)."""
        return max(int(math.ceil(math.log2(self.width + 1))), 1)

    def scan(self, condition: np.ndarray) -> np.ndarray:
        """Return the exclusive prefix sum of the boolean condition array.

        Emulates the layered network: an inclusive Hillis-Steele scan followed
        by a shift to exclusive form (the element's displacement is the count
        of earlier true elements).
        """
        condition = np.asarray(condition, dtype=np.int64).ravel()
        if condition.shape[0] > self.width:
            raise ValueError(
                f"input of {condition.shape[0]} elements exceeds UPE width {self.width}"
            )
        values = condition.copy()
        stride = 1
        while stride < values.shape[0]:
            shifted = np.zeros_like(values)
            shifted[stride:] = values[:-stride]
            values = values + shifted
            stride *= 2
        inclusive = values
        exclusive = inclusive - condition
        return exclusive


class RelocationLogic:
    """Butterfly-style routing network that compacts selected elements.

    Each of the ``log2(width)`` routing layers shifts elements left by a
    power-of-two distance selected by one bit of the element's displacement
    (Fig. 12c).  Elements whose condition is false are cleared to zero by the
    AND-gate stage before entering the network.
    """

    def __init__(self, width: int, element_bits: int = 64) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError("relocation width must be a positive power of two")
        self.width = width
        self.element_bits = element_bits

    @property
    def num_layers(self) -> int:
        """Depth of the routing network."""
        return int(math.log2(self.width)) if self.width > 1 else 1

    def relocate(
        self, values: np.ndarray, condition: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        """Move each selected element left to its displacement-determined slot.

        The move distance of element ``i`` is ``i - displacement[i]``; each
        routing layer applies the power-of-two component of that distance.
        Returns an array of the same length with selected elements compacted to
        the front and the tail zero-filled.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        condition = np.asarray(condition, dtype=bool).ravel()
        displacement = np.asarray(displacement, dtype=np.int64).ravel()
        n = values.shape[0]
        if n > self.width:
            raise ValueError(f"input of {n} elements exceeds width {self.width}")

        # AND-gate stage: clear elements that do not satisfy the condition.
        lanes = np.where(condition, values, 0)
        active = condition.copy()
        distance = np.where(condition, np.arange(n, dtype=np.int64) - displacement, 0)
        if np.any(distance < 0):
            raise ValueError("displacement array would move an element rightward")

        for layer in range(self.num_layers):
            shift = 1 << layer
            new_lanes = np.zeros_like(lanes)
            new_active = np.zeros_like(active)
            new_distance = np.zeros_like(distance)
            for i in range(n):
                if not active[i]:
                    continue
                if distance[i] & shift:
                    target = i - shift
                else:
                    target = i
                new_lanes[target] = lanes[i]
                new_active[target] = True
                new_distance[target] = distance[i] & ~shift
            lanes, active, distance = new_lanes, new_active, new_distance

        return lanes


class UPE:
    """One Unified Processing Element: prefix-sum + relocation datapath.

    Args:
        width: number of elements processed per pass (power of two).
        radix_bits: digit width used by :meth:`radix_sort_chunk`.

    Both networks are always emulated: the relocation network layer by layer
    and the radix sort as bucket extractions.
    """

    def __init__(self, width: int = 64, radix_bits: int = DEFAULT_RADIX_BITS) -> None:
        self.width = int(width)
        self.radix_bits = int(radix_bits)
        self.prefix = PrefixSumLogic(self.width)
        self.relocation = RelocationLogic(self.width)
        self.cycles_consumed = 0

    # ----------------------------------------------------------- primitives
    def reset_cycles(self) -> None:
        """Zero the cycle counter."""
        self.cycles_consumed = 0

    def set_partition(self, values: np.ndarray, condition: np.ndarray) -> SetPartitionResult:
        """Partition ``values`` into (condition-true, condition-false) subsets.

        Both subsets preserve the original relative order.  Charges
        :data:`CYCLES_PER_PARTITION_PASS` cycles.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        condition = np.asarray(condition, dtype=bool).ravel()
        if values.shape != condition.shape:
            raise ValueError("values and condition must have the same length")
        if values.shape[0] > self.width:
            raise ValueError(
                f"chunk of {values.shape[0]} elements exceeds UPE width {self.width}"
            )

        displacement = self.prefix.scan(condition.astype(np.int64))
        routed = self.relocation.relocate(values, condition, displacement)
        selected = routed[: int(condition.sum())].copy()
        rejected = values[~condition].copy()
        self.cycles_consumed += CYCLES_PER_PARTITION_PASS
        return SetPartitionResult(
            selected=selected.astype(np.int64),
            rejected=rejected.astype(np.int64),
            displacement=displacement,
            cycles=CYCLES_PER_PARTITION_PASS,
        )

    # ------------------------------------------------------------ radix sort
    def radix_sort_passes(self, key_bits: int) -> int:
        """Number of set-partition digit passes a radix sort of ``key_bits`` needs."""
        return max(int(math.ceil(key_bits / self.radix_bits)), 1)

    def radix_sort_chunk(self, keys: np.ndarray, key_bits: int) -> Tuple[np.ndarray, int]:
        """Sort one chunk of keys with an LSD radix sort built on set-partitioning.

        Each digit pass performs ``2**radix_bits`` bucket extractions; the
        datapath executes the digit pass as a pipelined sequence charged as one
        set-partition pass per digit (buckets are produced simultaneously by
        the displacement offsets, Fig. 8).  Returns the sorted chunk and the
        cycles charged.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.shape[0] > self.width:
            raise ValueError(
                f"chunk of {keys.shape[0]} elements exceeds UPE width {self.width}"
            )
        passes = self.radix_sort_passes(key_bits)
        cycles = passes * CYCLES_PER_PARTITION_PASS
        current = keys.copy()
        for digit in range(passes):
            shift = digit * self.radix_bits
            mask = (1 << self.radix_bits) - 1
            digits = (current >> shift) & mask
            # A stable counting pass: extract buckets in ascending digit
            # order with one set-partition each; displacement offsets give
            # the concatenation order.
            buckets: List[np.ndarray] = []
            remaining = current
            remaining_digits = digits
            for value in range(1 << self.radix_bits):
                if remaining.size == 0:
                    break
                cond = remaining_digits == value
                if not np.any(cond):
                    continue
                buckets.append(remaining[cond])
                keep = ~cond
                remaining = remaining[keep]
                remaining_digits = remaining_digits[keep]
            current = np.concatenate(buckets) if buckets else current
        self.cycles_consumed += cycles
        return current, cycles

    # -------------------------------------------------------------- sampling
    def extract_by_bitmap(self, values: np.ndarray, bitmap: np.ndarray) -> SetPartitionResult:
        """Extract the elements marked in ``bitmap`` (the sampled set).

        This is the final step of unique random selection (Fig. 16): after the
        per-draw one-hot extractions, the controller builds a condition array
        from its bitmap and runs one more set-partition to gather the sampled
        neighbourhood.
        """
        return self.set_partition(values, np.asarray(bitmap, dtype=bool))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UPE(width={self.width}, radix_bits={self.radix_bits})"
