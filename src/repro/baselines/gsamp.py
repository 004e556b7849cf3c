"""GSamp: gSampler-style GPU-accelerated graph sampling.

gSampler (SOSP'23) compiles matrix-centric sampling APIs through a data-flow
IR with kernel fusion and super-batching; the paper reports it accelerates the
sampling stage by ~7.5x over the DGL GPU baseline while graph conversion still
runs through the regular GPU path.
"""

from __future__ import annotations

from repro.baselines.gpu import GPUPreprocessingSystem


class GSampSystem(GPUPreprocessingSystem):
    """GPU preprocessing with gSampler-accelerated sampling."""

    name = "GSamp"
    sampling_speedup = 7.5
