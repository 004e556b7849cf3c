"""Quickstart: preprocess a graph on the AutoGNN simulator and run inference.

Loads a scaled synthetic stand-in of the ogbn-arxiv dataset, runs the full
hardware preprocessing workflow (edge ordering, data reshaping, unique random
selection, subgraph reindexing), verifies the result against the software
reference pipeline, and feeds the sampled subgraph to a GraphSAGE model.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AutoGNNDevice, DEFAULT_HARDWARE
from repro.gnn import EmbeddingTable, InferenceEngine, build_model
from repro.graph import load_dataset
from repro.preprocessing import PreprocessingConfig, preprocess


def main() -> None:
    # 1. Load a graph (a synthetic stand-in of ogbn-arxiv at 1/1000 scale).
    graph = load_dataset("AX")
    print(f"Loaded {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"average degree {graph.avg_degree:.1f}")

    # 2. Preprocess on the AutoGNN device model.
    device = AutoGNNDevice(DEFAULT_HARDWARE)
    config = PreprocessingConfig(k=10, num_layers=2, batch_size=64, seed=0)
    accelerated = device.preprocess(graph, config)
    result = accelerated.result
    timing = accelerated.timing

    print("\nAutoGNN preprocessing")
    print(f"  hardware            : {DEFAULT_HARDWARE.key()}")
    for task, cycles in timing.breakdown().items():
        print(f"  {task:<12} cycles : {cycles}")
    print(f"  total latency       : {timing.total_seconds * 1e6:.1f} us @ 300 MHz")
    print(f"  sampled subgraph    : {result.num_sampled_nodes} nodes, "
          f"{result.num_sampled_edges} edges")

    # 3. Verify against the pure-software reference pipeline.
    reference = preprocess(graph, config)
    assert np.array_equal(reference.csc.indptr, result.csc.indptr)
    assert np.array_equal(reference.csc.indices, result.csc.indices)
    print("  CSC conversion matches the software reference")

    # 4. Run GraphSAGE inference on the sampled, reindexed subgraph.
    embeddings = EmbeddingTable.random(graph.num_nodes, dim=64, seed=1)
    model = build_model("graphsage", in_dim=64, hidden_dim=64, num_layers=2)
    engine = InferenceEngine(model)
    inference = engine.run(result.subgraph_csc, embeddings, reindex=result.reindex)

    print("\nGNN inference on the sampled subgraph")
    print(f"  output embeddings   : {inference.outputs.shape}")
    print(f"  modelled GPU latency: {inference.latency_seconds * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
