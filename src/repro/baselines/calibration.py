"""Calibration constants of the CPU and GPU preprocessing models.

The paper's CPU/GPU baselines run DGL on a 128-core Xeon and an RTX 3090.  We
cannot measure those machines here, so each preprocessing task gets an
analytic throughput model whose constants are calibrated to land the paper's
relative results:

* preprocessing dominates the GPU service latency (~70 % on average, growing
  with graph size — Fig. 5);
* sampling dominates small graphs, conversion (reshaping in particular)
  dominates graphs beyond ~10 M edges (Fig. 6);
* on the GPU, 64.1 % of the redesigned set-partition/set-count execution
  remains serialized (Fig. 10);
* end-to-end, GPU preprocessing is ~3.4x faster than CPU (Fig. 18).

All constants live here so the calibration is visible and adjustable in one
place; EXPERIMENTS.md records the resulting paper-vs-measured ratios.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BaselineCalibration:
    """Per-task throughput constants of a software preprocessing baseline.

    Attributes:
        name: system name the constants describe.
        ordering_edges_per_second: sustained edge-sort throughput.
        ordering_fixed_seconds: fixed per-pass sort overhead (kernel launches,
            allocations) — dominates small graphs.
        reshaping_edges_per_second: sustained pointer-array build throughput.
        reshaping_fixed_seconds: fixed per-pass reshaping overhead.
        selection_seconds_per_draw: fixed cost of one unique random draw.
        selection_seconds_per_neighbor: extra per-neighbour scan cost of a draw.
        reindexing_seconds_per_endpoint: cost of one hash-map lookup/insert.
        memory_bandwidth: peak DRAM bandwidth in bytes/second.
        access_amplification: extra DRAM traffic factor caused by uncoalesced
            and atomic accesses (used by the bandwidth-utilisation metric).
    """

    name: str
    ordering_edges_per_second: float
    reshaping_edges_per_second: float
    selection_seconds_per_draw: float
    selection_seconds_per_neighbor: float
    reindexing_seconds_per_endpoint: float
    memory_bandwidth: float
    access_amplification: float = 1.0
    ordering_fixed_seconds: float = 0.0
    reshaping_fixed_seconds: float = 0.0


#: DGL preprocessing on the 128-core Xeon host.
CPU_CALIBRATION = BaselineCalibration(
    name="CPU",
    ordering_edges_per_second=150e6,
    reshaping_edges_per_second=400e6,
    selection_seconds_per_draw=220e-9,
    selection_seconds_per_neighbor=1.2e-9,
    reindexing_seconds_per_endpoint=160e-9,
    memory_bandwidth=200e9,
    access_amplification=2.0,
    ordering_fixed_seconds=5e-3,
    reshaping_fixed_seconds=5e-3,
)

#: DGL preprocessing on the RTX 3090.
GPU_CALIBRATION = BaselineCalibration(
    name="GPU",
    ordering_edges_per_second=2.2e9,
    reshaping_edges_per_second=620e6,
    selection_seconds_per_draw=62e-9,
    selection_seconds_per_neighbor=0.25e-9,
    reindexing_seconds_per_endpoint=20e-9,
    memory_bandwidth=936e9,
    access_amplification=18.0,
    ordering_fixed_seconds=8e-3,
    reshaping_fixed_seconds=8e-3,
)
