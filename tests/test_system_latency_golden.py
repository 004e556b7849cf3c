"""Exact golden of every analytic pass model.

The figure goldens round to three decimals, so a refactor of the pass
formulas could move a latency by one ulp without failing them.  This module
pins, as ``repr`` floats, what every compared system reports for one pass:
the seven systems of Fig. 18 and the twelve single-function accelerator
deployments of Fig. 27, each evaluated on a fresh replica for the eleven
Table II datasets x batch sizes {1000, 3000} x ``k`` in {1, 10}.  The Table I
cost model's estimate of the same workloads on every library configuration
is pinned as one SHA-256 over the ``repr`` of every value.

The whole file is compared as text.  Regenerate after an *intentional*
model change with::

    PYTHONPATH=src python tests/test_system_latency_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.baselines import OTHER_ACCELERATORS, AcceleratorDeployment, SingleFunctionAccelerator
from repro.core.bitstream import generate_bitstream_library
from repro.core.cost_model import CostModel
from repro.graph.datasets import DATASETS
from repro.system.service import build_reference_systems
from repro.system.variants import AutoGNNVariant
from repro.system.workload import WorkloadProfile

GOLDEN_PATH = Path(__file__).parent / "golden" / "system_latencies.json"

BATCH_SIZES = (1000, 3000)
KS = (1, 10)

#: Recorded per pass as one space-separated row of ``repr`` floats, in this
#: order; AutoGNN variants add ``lut_utilization``.
FIELDS = (
    "ordering",
    "reshaping",
    "selecting",
    "reindexing",
    "host_to_accelerator",
    "accelerator_to_gpu",
    "gpu_to_accelerator",
    "host_to_gpu",
    "reconfiguration",
    "bandwidth_utilization",
)


def _workloads():
    for key in DATASETS:
        for batch_size in BATCH_SIZES:
            for k in KS:
                yield f"{key}/b{batch_size}/k{k}", WorkloadProfile.from_dataset(
                    key, k=k, batch_size=batch_size
                )


def _systems():
    systems = dict(build_reference_systems())
    for spec in OTHER_ACCELERATORS:
        for deployment in AcceleratorDeployment:
            system = SingleFunctionAccelerator(spec, deployment)
            systems[system.name] = system
    return systems


def _pass_values(system, workload):
    result = system.replicate().evaluate(workload)
    values = [
        *result.preprocessing.as_dict().values(),
        result.transfers.host_to_accelerator,
        result.transfers.accelerator_to_gpu,
        result.transfers.gpu_to_accelerator,
        result.transfers.host_to_gpu,
        result.reconfiguration,
        result.bandwidth_utilization,
    ]
    if isinstance(system, AutoGNNVariant):
        values.append(result.lut_utilization)
    return " ".join(repr(value) for value in values)


def _cost_model_digest():
    model = CostModel()
    configs = generate_bitstream_library().configurations()
    digest = hashlib.sha256()
    for _, workload in _workloads():
        params = workload.to_cost_params()
        for config in configs:
            estimate = model.estimate(params, config)
            for value in estimate.breakdown().values():
                digest.update(repr(value).encode())
                digest.update(b"\n")
    return digest.hexdigest()


def render() -> str:
    """The golden document for the current implementation."""
    workloads = list(_workloads())
    document = {
        "fields": list(FIELDS) + ["lut_utilization (AutoGNN variants)"],
        "systems": {
            name: {label: _pass_values(system, workload) for label, workload in workloads}
            for name, system in _systems().items()
        },
        "cost_model_sha256": _cost_model_digest(),
    }
    return json.dumps(document, indent=1) + "\n"


def test_pass_models_match_golden_exactly():
    assert render() == GOLDEN_PATH.read_text(), (
        "a pass model moved; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_system_latency_golden.py --regen`"
    )


def test_golden_covers_every_system_and_workload():
    document = json.loads(GOLDEN_PATH.read_text())
    assert len(document["systems"]) == 7 + 4 * 3
    for rows in document["systems"].values():
        assert len(rows) == len(DATASETS) * len(BATCH_SIZES) * len(KS)


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(render())
        print(f"wrote {GOLDEN_PATH}")
    else:
        sys.exit(pytest.main([__file__, "-q"]))
