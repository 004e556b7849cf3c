"""Scaling microbenchmark: the preprocessing pipeline against its oracles.

Times the end-to-end functional preprocessing pipeline (edge ordering, data
reshaping, unique random selection, subgraph reindexing, subgraph conversion)
on synthetic power-law graphs of increasing size, once as ``preprocess`` runs
it (the vectorized fast path) and once as a reference leg that swaps in the
per-element oracles ``node_wise_sample_reference`` and
``reindex_edges_reference``.  It verifies the fast-path contract along the
way: reindexing output bit-exact with the oracles', and the device's
selection and reindexing cycles equal to the charge of the oracle's
``SelectionStats`` and per-lookup occupancies (see DESIGN.md, "The fast path
and its oracles").

It also times ``AutoGNNDevice.preprocess`` (the cycle-level device model in
its default fast path) on the same graph, which must stay within
``DEVICE_RATIO_CEILING`` of the vectorized pipeline at the 100k-edge scale:
both do the same functional work, so a larger ratio means the device model
has forked a slower host implementation of some task.

The document's ``gates`` hold, at every scale up to 100k edges, the speedup
floor (``MIN_SPEEDUPS``, and half the committed speedup), bit-exactness and
cycle identity, plus the device-ratio ceiling at 100k.  The exit code, the
pytest-benchmark entry and ``check_perf_regression.py`` all evaluate them.

A full run writes ``BENCH_perf_preprocessing.json`` at the repo root (the
committed perf trajectory); ``--quick`` skips the 1M-edge scale and writes
under ``benchmarks/results/``.  Runs standalone or through pytest-benchmark
like the figure benchmarks.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core.accelerator import AutoGNNDevice
from repro.core.config import DEFAULT_HARDWARE, HardwareConfig
from repro.core.kernels import reindexing_cycle_count, selection_cycle_count
from repro.graph.convert import coo_to_csc, csc_from_ordered, edge_order
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.reindex import reindex_edges_reference
from repro.graph.sampling import node_wise_sample_reference
from repro.preprocessing.pipeline import PreprocessingConfig, choose_batch_nodes, preprocess

from common import DEFAULT_KEEP, gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_perf_preprocessing.json"

#: Benchmark scales: (label, nodes, edges, batch size).  The 1M-edge scale
#: documents the trajectory ungated and is skipped in quick mode.
SCALES = [
    ("10k", 2_000, 10_000, 1_000),
    ("100k", 20_000, 100_000, 3_000),
    ("1m", 200_000, 1_000_000, 3_000),
]

#: Gated scales and their minimum vectorized-vs-reference speedups.
MIN_SPEEDUPS = {"10k": 5.0, "100k": 10.0}

#: Bit-exactness and cycle-identity verification run the oracles once more,
#: so they are limited to scales at or below this edge count.
CYCLE_CHECK_MAX_EDGES = 100_000

#: Cycle identity is checked on the default device and on this one, whose
#: reindexer scans 128 mappings per cycle: the default scans 4,096, more
#: than the 10k-edge subgraph maps, so there every lookup costs one cycle
#: and an occupancy off by one would go uncharged.
NARROW_REINDEXER = HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64)

#: Ceiling on ``device_seconds / vectorized_seconds`` at the gated scale.
DEVICE_RATIO_CEILING = 1.5

#: Scale at which the device-ratio gate applies.
GATE_SCALE = "100k"

#: Workload parameters shared by every scale.
K = 10
NUM_LAYERS = 2
SEED = 0


def _min_seconds(runs: Dict[str, Callable[[], object]], repeats: int = 5) -> Dict[str, float]:
    """Minimum wall time of each named path over ``repeats`` rounds.

    The minimum is the standard noise-robust estimator (scheduling jitter
    only ever adds time).  Every round runs each path once, so a drift in
    host speed lands on all paths alike instead of skewing their ratios.
    """
    best = {name: float("inf") for name in runs}
    for _ in range(repeats):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _reference_leg(graph, workload: PreprocessingConfig) -> Dict[str, object]:
    """The pipeline of ``preprocess`` with the oracles in place of the fast
    selection and reindexing: the baseline of the speedup gates."""
    ordered = edge_order(graph)
    csc = csc_from_ordered(ordered)
    sample, stats = node_wise_sample_reference(
        csc, choose_batch_nodes(graph, workload), workload.k, workload.num_layers, workload.seed
    )
    combined = sample.all_edges()
    reindex, occupancy = reindex_edges_reference(combined.src, combined.dst)
    return {
        "stats": stats,
        "reindex": reindex,
        "occupancy": occupancy,
        "subgraph_csc": coo_to_csc(reindex.edges),
    }


def _time_paths(graph, batch_size: int) -> Dict[str, float]:
    """Best pass of the pipeline, its reference leg and the device model."""
    device = AutoGNNDevice()
    workload = PreprocessingConfig(k=K, num_layers=NUM_LAYERS, batch_size=batch_size, seed=SEED)
    return _min_seconds(
        {
            "vectorized": lambda: preprocess(graph, workload),
            "reference": lambda: _reference_leg(graph, workload),
            "device": lambda: device.preprocess(graph, workload),
        }
    )


def _check_equivalence(graph, batch_size: int) -> Dict[str, bool]:
    """Bit-exactness against the oracles, and the device's selection and
    reindexing cycles against the charge of what the oracles counted."""
    workload = PreprocessingConfig(k=K, num_layers=NUM_LAYERS, batch_size=batch_size, seed=SEED)
    ref = _reference_leg(graph, workload)
    vec = preprocess(graph, workload)
    bit_exact = (
        ref["reindex"].mapping == vec.reindex.mapping
        and np.array_equal(ref["reindex"].edges.src, vec.reindex.edges.src)
        and np.array_equal(ref["reindex"].edges.dst, vec.reindex.edges.dst)
        and np.array_equal(ref["reindex"].original_vids, vec.reindex.original_vids)
        and np.array_equal(ref["subgraph_csc"].indptr, vec.subgraph_csc.indptr)
        and np.array_equal(ref["subgraph_csc"].indices, vec.subgraph_csc.indices)
    )
    stats = ref["stats"]
    timings = [
        (config, AutoGNNDevice(config).preprocess(graph, workload).timing)
        for config in (DEFAULT_HARDWARE, NARROW_REINDEXER)
    ]
    cycles_identical = all(
        timing.selecting_cycles == selection_cycle_count(stats.draws, stats.arrays, config)
        and timing.reindexing_cycles == reindexing_cycle_count(ref["occupancy"], config)
        for config, timing in timings
    )
    return {
        "bit_exact": bool(bit_exact),
        "cycles_identical": bool(cycles_identical),
        "total_cycles": int(timings[0][1].total_cycles),
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    results: List[Dict] = []
    for label, num_nodes, num_edges, batch_size in SCALES:
        if quick and num_edges > 100_000:
            continue
        graph = power_law_graph(
            GraphSpec(num_nodes=num_nodes, num_edges=num_edges, degree_skew=0.5, seed=42)
        )
        seconds = _time_paths(graph, batch_size)
        vectorized_seconds = seconds["vectorized"]
        reference_seconds = seconds["reference"]
        device_seconds = seconds["device"]
        entry = {
            "scale": label,
            "num_nodes": num_nodes,
            "num_edges": num_edges,
            "batch_size": batch_size,
            "k": K,
            "num_layers": NUM_LAYERS,
            "reference_seconds": round(reference_seconds, 6),
            "vectorized_seconds": round(vectorized_seconds, 6),
            "speedup": round(reference_seconds / max(vectorized_seconds, 1e-12), 2),
            "device_seconds": round(device_seconds, 6),
            "device_ratio": round(device_seconds / max(vectorized_seconds, 1e-12), 2),
        }
        if num_edges <= CYCLE_CHECK_MAX_EDGES:
            entry.update(_check_equivalence(graph, batch_size))
        results.append(entry)
        print(
            f"{label:>5}: reference {reference_seconds * 1e3:9.1f} ms | "
            f"vectorized {vectorized_seconds * 1e3:8.1f} ms | "
            f"speedup {entry['speedup']:7.1f}x | "
            f"device {device_seconds * 1e3:8.1f} ms ({entry['device_ratio']:.2f}x vectorized)"
            + (
                f" | bit_exact={entry['bit_exact']} cycles_identical={entry['cycles_identical']}"
                if "bit_exact" in entry
                else ""
            )
        )

    document = {
        "benchmark": "perf_preprocessing",
        "quick": bool(quick),
        "results": results,
        "gates": _gates(results),
    }
    write_result(document, RESULT_PATH)
    return document


def _gates(results: List[Dict]) -> List[Dict]:
    gates: List[Dict] = []
    for entry in results:
        scale = entry["scale"]
        if scale not in MIN_SPEEDUPS:
            continue
        gates += [
            {"name": f"speedup_{scale}", "value": entry["speedup"],
             "floor": MIN_SPEEDUPS[scale], "keep": DEFAULT_KEEP},
            {"name": f"bit_exact_{scale}", "value": entry["bit_exact"], "floor": True},
            {"name": f"cycles_identical_{scale}", "value": entry["cycles_identical"],
             "floor": True},
        ]
        if scale == GATE_SCALE:
            gates.append({"name": f"device_ratio_{scale}", "value": entry["device_ratio"],
                          "ceiling": DEVICE_RATIO_CEILING})
    return gates


def test_perf_preprocessing(benchmark):
    """Pytest-benchmark entry point (quick scales) with the acceptance gates."""
    document = run_once(benchmark, lambda: run(quick=True))
    assert not gate_failures(document["gates"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the 1M-edge scale and write under benchmarks/results/ (CI mode)",
    )
    args = parser.parse_args(argv)
    document = run(quick=args.quick)
    return 1 if gate_failures(document["gates"]) else 0


if __name__ == "__main__":
    sys.exit(main())
