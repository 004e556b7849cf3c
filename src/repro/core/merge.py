"""Merge sorting with UPEs (Algorithm 1 of the paper).

Two locally sorted edge arrays are merged at a rate of ``w/2`` elements per
cycle: the UPE keeps a buffer of ``w`` elements, sorts it, emits the smaller
half, then refills the freed half from whichever input currently has the
smaller head element.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.upe import UPE


def upe_merge(upe: UPE, a: np.ndarray, b: np.ndarray, key_bits: int) -> Tuple[np.ndarray, int]:
    """Merge two sorted arrays with one UPE, following Algorithm 1.

    Returns the merged array and the cycles charged.  Each loop iteration
    sorts the ``w``-element buffer (one radix-sort pass set) and emits ``w/2``
    elements, so the steady-state rate is ``w/2`` elements per iteration.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    w = upe.width
    half = max(w // 2, 1)
    cycles = 0

    if a.size == 0:
        return b.copy(), 0
    if b.size == 0:
        return a.copy(), 0

    out: List[np.ndarray] = []
    ai, bi = min(half, a.size), min(half, b.size)
    buf = np.concatenate([a[:ai], b[:bi]])

    while True:
        buf_sorted, pass_cycles = upe.radix_sort_chunk(buf, key_bits)
        cycles += pass_cycles
        emit = min(half, buf_sorted.size)
        out.append(buf_sorted[:emit])
        buf = buf_sorted[emit:]
        a_left = a.size - ai
        b_left = b.size - bi
        if a_left == 0 and b_left == 0:
            if buf.size:
                tail_sorted, tail_cycles = upe.radix_sort_chunk(buf, key_bits)
                cycles += tail_cycles
                out.append(tail_sorted)
            break
        # Refill from whichever array has the smaller head element.
        take_from_a = b_left == 0 or (a_left > 0 and a[ai] < b[bi])
        if take_from_a:
            take = min(half, a_left)
            buf = np.concatenate([buf, a[ai : ai + take]])
            ai += take
        else:
            take = min(half, b_left)
            buf = np.concatenate([buf, b[bi : bi + take]])
            bi += take

    merged = np.concatenate(out)
    return merged, cycles


def upe_merge_sort(
    upe: UPE, chunks: Sequence[np.ndarray], key_bits: int
) -> Tuple[np.ndarray, int]:
    """Merge a list of locally sorted chunks into one globally sorted array.

    Performs ``ceil(log2(len(chunks)))`` pairwise merge rounds; the cycle
    count is the sum over all pairwise merges (one UPE working serially — the
    kernel divides this by the UPE count for the parallel estimate).
    """
    if not chunks:
        return np.empty(0, dtype=np.int64), 0
    current = [np.asarray(c, dtype=np.int64).ravel() for c in chunks]
    total_cycles = 0
    while len(current) > 1:
        next_round: List[np.ndarray] = []
        for i in range(0, len(current), 2):
            if i + 1 < len(current):
                merged, cycles = upe_merge(upe, current[i], current[i + 1], key_bits)
                total_cycles += cycles
                next_round.append(merged)
            else:
                next_round.append(current[i])
        current = next_round
    return current[0], total_cycles


def merge_rounds(num_chunks: int | np.ndarray) -> int | np.ndarray:
    """Pairwise merge rounds that combine ``num_chunks`` runs: ``ceil(log2 n)``.

    That is the bit length of ``n - 1`` (``log2`` is not exact: its rounding
    can land on the integer below).  An array of chunk counts reads it as
    ``frexp``'s exponent, exact below 2^53; a scalar count, which the
    simulator's cycle counts pass once per call, uses ``int.bit_length``,
    several times faster than a NumPy call on one value.
    """
    if isinstance(num_chunks, np.ndarray):
        return np.frexp(np.maximum(num_chunks - 1, 0))[1].astype(np.int64)
    return max(int(num_chunks) - 1, 0).bit_length()
