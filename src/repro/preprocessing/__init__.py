"""Reference GNN preprocessing workflow.

The paper decomposes GNN preprocessing into four tasks (Section II-B):
edge ordering, data reshaping, unique random selection and subgraph
reindexing.  This package runs them in the order of Fig. 14 as plain
functions: the software reference that the CPU/GPU baselines and the
AutoGNN hardware simulator are all verified against.
"""

from repro.preprocessing.pipeline import (
    PreprocessingConfig,
    PreprocessingResult,
    choose_batch_nodes,
    preprocess,
)

__all__ = [
    "PreprocessingConfig",
    "PreprocessingResult",
    "choose_batch_nodes",
    "preprocess",
]
