"""Serve a continuously growing social graph with runtime reconfiguration.

Replays an update stream on a StackOverflow-like graph (the SO dataset grows
by ~0.52 % per day), reports on each snapshot whether DynPre swapped its
staged bitstreams and what moving the update to the device cost, and compares
the fixed-configuration StatPre system against the reconfigurable DynPre
system over time — the scenario behind Figs. 7, 28 and 30.

Run with:  python examples/dynamic_graph_serving.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.graph import load_dataset
from repro.graph.dynamic import DAILY_GROWTH_RATE, GraphUpdateStream
from repro.system import WorkloadProfile
from repro.system.service import GNNService
from repro.system.variants import DynPreSystem, StatPreSystem

DAYS = 10
PASSES_PER_DAY = 20


def main() -> None:
    base = load_dataset("SO", scale=1 / 5000)
    print(f"Base graph: {base.num_nodes} nodes, {base.num_edges} edges")

    stat = GNNService(StatPreSystem())
    dyn = GNNService(DynPreSystem())
    upload_seconds = dyn.preprocessing.pcie.dma_main(base.nbytes())
    print(f"Initial upload through DMA-main: {upload_seconds * 1e3:.2f} ms")

    stream = GraphUpdateStream(base, growth_rate=DAILY_GROWTH_RATE["SO"] * 50, seed=0)
    rows = []
    graph = base
    for day, batch in enumerate(stream.generate(DAYS)):
        graph = graph.add_edges(batch.src, batch.dst, num_nodes=graph.num_nodes + batch.new_nodes)
        workload = WorkloadProfile.from_graph(graph, batch_size=256, update_fraction=batch.num_edges / graph.num_edges)

        stat_total = sum(stat.serve(workload).total_seconds for _ in range(PASSES_PER_DAY))
        dyn_passes = [dyn.serve(workload) for _ in range(PASSES_PER_DAY)]
        dyn_total = sum(report.total_seconds for report in dyn_passes)
        reconfigured = any(report.system_latency.reconfiguration > 0 for report in dyn_passes)
        rows.append(
            [
                day,
                graph.num_edges,
                round(dyn_passes[0].system_latency.transfers.host_to_accelerator * 1e3, 3),
                "yes" if reconfigured else "no",
                round(stat_total * 1e3, 2),
                round(dyn_total * 1e3, 2),
            ]
        )

    print(format_table(
        f"Serving a growing SO-like graph ({PASSES_PER_DAY} passes per step)",
        ["step", "edges", "update upload ms", "reconfigure?", "StatPre ms", "DynPre ms"],
        rows,
    ))
    print("\nDynPre adapts the UPE/SCR configuration as the graph grows; the fixed")
    print("StatPre configuration slowly drifts away from the optimum.")


if __name__ == "__main__":
    main()
