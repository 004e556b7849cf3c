"""The replica contract every preprocessing system keeps.

A serving cluster builds its shards with ``PreprocessingSystem.replicas``,
a shallow copy per shard.  For every compared system — the seven of
Fig. 18, each single-function accelerator of Fig. 27 in each deployment,
and systems built with non-default inputs or renamed — a replica must:

* evaluate a Table II sweep exactly as the original does;
* share no mutable container with the original or with a sibling, except
  DynPre's per-cluster pure memos (shared among siblings only) and its
  candidate list (built once from the immutable library);
* serve through a 1-shard, batch-size-1 cluster exactly as
  ``GNNService.serve_many`` does, and through a 2-shard cluster with the
  same bytes on both engines.
"""

import json
from enum import Enum

import pytest
from conftest import WORKLOAD_POOL, zero_gap_trace

from repro.baselines.cpu import CPUPreprocessingSystem
from repro.baselines.gpu import GPUPreprocessingSystem
from repro.baselines.gsamp import GSampSystem
from repro.baselines.other_accels import (
    OTHER_ACCELERATORS,
    AcceleratorDeployment,
    SingleFunctionAccelerator,
)
from repro.core.config import scaled_default_config
from repro.graph.datasets import DATASET_ORDER
from repro.serving import BatchScheduler, ShardedServiceCluster
from repro.system.boards import board_by_name
from repro.system.pcie import PCIeLink
from repro.system.service import GNNService, build_reference_systems
from repro.system.variants import AutoPreSystem, DynPreSystem, StatPreSystem
from repro.system.workload import WorkloadProfile

#: DynPre's pure memos: one set per cluster, shared by its shards.
CLUSTER_MEMOS = ("_configured_cache", "_latency_cache", "_shortlists")

#: Shared by every copy, the original included: built from the immutable library.
SHARED_WITH_ORIGINAL = ("_candidates",)

SLOW_LINK = PCIeLink(bandwidth=8e9, bypass_bandwidth=1e9, setup_seconds=5e-6)
MID_BOARD = board_by_name("Kintex UltraScale KU115").resources()


def _renamed(system, name):
    system.name = name
    return system


def _system_factories():
    factories = {
        f"reference-{name}": (lambda name=name: build_reference_systems()[name])
        for name in build_reference_systems()
    }
    for spec in OTHER_ACCELERATORS:
        for deployment in AcceleratorDeployment:
            factories[f"{spec.key}-{deployment.value}"] = (
                lambda spec=spec, deployment=deployment: SingleFunctionAccelerator(
                    spec, deployment
                )
            )
    factories.update(
        {
            "cpu-slow-link": lambda: CPUPreprocessingSystem(pcie=SLOW_LINK),
            "gsamp-custom": lambda: GSampSystem(pcie=SLOW_LINK),
            "gpu-renamed": lambda: _renamed(GPUPreprocessingSystem(), "GPU-rack0"),
            "autopre-bandwidth": lambda: AutoPreSystem(device_bandwidth=16e9, clock_hz=250e6),
            "statpre-board": lambda: StatPreSystem(
                board=MID_BOARD, pcie=SLOW_LINK, device_bandwidth=20e9
            ),
            "dynpre-board-renamed": lambda: _renamed(
                DynPreSystem(board=MID_BOARD, device_bandwidth=24e9), "DynPre-rack0"
            ),
            "flag-auto-custom": lambda: SingleFunctionAccelerator(
                OTHER_ACCELERATORS[-1],
                AcceleratorDeployment.AUTO,
                pcie=SLOW_LINK,
                base_config=scaled_default_config(MID_BOARD),
            ),
        }
    )
    return factories


FACTORIES = _system_factories()

SWEEP = [
    WorkloadProfile.from_dataset(key, batch_size=batch_size)
    for key in DATASET_ORDER
    for batch_size in (1000, 3000)
]


def _mutable_containers(system, skip=()):
    """``id -> attribute path`` of every dict, list, set or bytearray
    reachable from ``system``'s attributes, not entering those in ``skip``."""
    found = {}
    seen = set()

    def walk(value, path):
        if value is None or isinstance(value, (str, bytes, int, float, Enum)):
            return
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, (dict, list, set, bytearray)):
            found[id(value)] = path
        if isinstance(value, dict):
            for key, item in value.items():
                walk(key, f"{path}[{key!r}]")
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple, set, frozenset)):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif hasattr(value, "__dict__"):
            for name, item in vars(value).items():
                walk(item, f"{path}.{name}")

    for name, value in vars(system).items():
        if name not in skip:
            walk(value, name)
    return found


def _shared(first, second, skip=()):
    a = _mutable_containers(first, skip)
    b = _mutable_containers(second, skip)
    return sorted(a[key] for key in a.keys() & b.keys())


@pytest.fixture(params=sorted(FACTORIES))
def make_system(request):
    return FACTORIES[request.param]


def test_replicas_evaluate_like_the_original(make_system):
    original = make_system()
    copies = [original.replicate(), *original.replicas(2)]
    expected = [original.evaluate(workload) for workload in SWEEP]
    for copy in copies:
        assert type(copy) is type(original)
        assert copy.name == original.name
        assert copy.power_platform == original.power_platform
        assert [copy.evaluate(workload) for workload in SWEEP] == expected


def test_replicas_share_no_mutable_container(make_system):
    original = make_system()
    single = original.replicate()
    siblings = original.replicas(2)
    memos = CLUSTER_MEMOS if isinstance(original, DynPreSystem) else ()
    for copy in (single, *siblings):
        assert _shared(original, copy, skip=SHARED_WITH_ORIGINAL) == []
    for sibling in siblings:
        assert _shared(single, sibling, skip=SHARED_WITH_ORIGINAL) == []
    assert _shared(*siblings, skip=SHARED_WITH_ORIGINAL + memos) == []
    for name in memos:
        assert getattr(siblings[0], name) is getattr(siblings[1], name)
        assert getattr(siblings[0], name) is not getattr(original, name)
        assert getattr(single, name) is not getattr(original, name)
    # Serving the copies leaves the original as it was.
    state = original.state_key()
    for copy in (single, *siblings):
        for workload in SWEEP:
            copy.evaluate(workload)
    assert original.state_key() == state
    for name in memos:
        assert getattr(original, name) == {}
    if memos:
        assert original.reconfig.events == []
        assert any(copy.reconfig.events for copy in siblings)


def test_clusters_serve_every_system(make_system):
    """1 shard, batch size 1 is ``serve_many``; 2 shards render the same
    bytes on both engines."""
    workloads = [WORKLOAD_POOL[0], WORKLOAD_POOL[1], WORKLOAD_POOL[0], WORKLOAD_POOL[2]]
    trace = zero_gap_trace(workloads)
    template = GNNService(make_system())
    one_shard = ShardedServiceCluster(
        template, num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
    )
    got = one_shard.serve_trace(trace).service_reports()
    assert got == template.replicate().serve_many(workloads)
    rendered = {
        engine: json.dumps(
            ShardedServiceCluster(template, num_shards=2, engine=engine)
            .serve_trace(trace)
            .as_dict(),
            sort_keys=True,
        )
        for engine in ("reference", "fast")
    }
    assert rendered["reference"] == rendered["fast"]
