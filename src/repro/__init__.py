"""Reproduction of AutoGNN (HPCA 2026): hardware-driven GNN preprocessing.

The package is organised as follows:

* :mod:`repro.graph` — graph substrate (COO/CSC, datasets, sampling, dynamics).
* :mod:`repro.preprocessing` — reference implementation of the four
  preprocessing tasks and the end-to-end pipeline.
* :mod:`repro.core` — the AutoGNN accelerator model (UPEs, SCRs, kernels,
  cost model, bitstreams, reconfiguration, the device).
* :mod:`repro.gnn` — GNN inference substrate (GraphSAGE/GCN/GAT/GIN).
* :mod:`repro.baselines` — CPU/GPU/GSamp/FPGA-sampler and other accelerators.
* :mod:`repro.system` — host integration: PCIe transfers, power/energy, FPGA
  board catalogue and the AutoPre/StatPre/DynPre variants (DynPre holds the
  runtime reconfiguration policy).
* :mod:`repro.serving` — request traffic, batch scheduling and sharded
  service clusters for the served-traffic experiments.
* :mod:`repro.analysis` — metrics and report formatting for the benchmarks.
"""

__version__ = "1.1.0"

__all__ = [
    "graph",
    "preprocessing",
    "core",
    "gnn",
    "baselines",
    "system",
    "serving",
    "analysis",
]
