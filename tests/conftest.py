"""Shared fixtures for the test suite.

Besides the graph/hardware fixtures, this module centralises the serving
layer's test setup (workload profiles, traces, reference services/clusters)
that used to be copy-pasted across ``test_serving.py`` and
``test_serving_properties.py``, and registers the hypothesis profiles the
CI pipeline selects with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.config import HardwareConfig
from repro.graph.coo import COOGraph
from repro.graph.convert import coo_to_csc
from repro.graph.csc import CSCGraph
from repro.graph.generators import GraphSpec, power_law_graph
from repro.serving import (
    BatchScheduler,
    BurstyArrivals,
    InferenceRequest,
    OpenLoopArrivals,
    RequestTrace,
    ShardedServiceCluster,
    merge_traces,
)
from repro.serving import cluster as cluster_module
from repro.serving.scheduler import RequestBatch
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

# --------------------------------------------------------- hypothesis profiles
# "ci" is fully derandomized (fixed example seed) so hypothesis failures are
# reproducible across CI runs; "dev" keeps random exploration locally.
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# ------------------------------------------------------------------- oracles
def loop_merge_rounds(num_chunks: int) -> int:
    """Pairwise merge rounds counted by halving the run count, one round at
    a time: the oracle of ``repro.core.merge.merge_rounds``."""
    rounds = 0
    while num_chunks > 1:
        num_chunks = (num_chunks + 1) // 2
        rounds += 1
    return rounds


def reindex_mapping_sizes(codes: np.ndarray) -> np.ndarray:
    """Mapping occupancy each endpoint lookup sees, from first-appearance codes.

    ``sizes[i]`` is ``max(codes[:i]) + 1``, at least 1 (an empty SRAM bank
    still takes one scan); ``reindexing_cycle_count(sizes, config)`` is the
    reindexing charge that ``repro.core.kernels.reindexing_cycles_of``
    computes without these sizes.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.empty(codes.shape[0], dtype=np.int64)
    sizes[0] = 1
    sizes[1:] = np.maximum.accumulate(codes)[:-1] + 1
    return sizes


# ------------------------------------------------------------ serving helpers
def make_profile(name: str = "synth", batch_size: int = 100, **kwargs) -> WorkloadProfile:
    """A small synthetic workload profile (kwargs override the defaults)."""
    defaults = dict(num_nodes=50_000, num_edges=400_000, avg_degree=8.0)
    defaults.update(kwargs)
    return WorkloadProfile(name=name, batch_size=batch_size, **defaults)


def profile_with_home(home: int, num_candidates: int, batch_size: int = 800):
    """A workload profile whose locality home shard is ``home``."""
    for i in range(64):
        profile = make_profile(f"drain-{i}", batch_size=batch_size)
        batch = RequestBatch(
            requests=[
                InferenceRequest(request_id=0, arrival_seconds=0.0, workload=profile)
            ],
            ready_seconds=0.0,
        )
        if cluster_module._home_shard(batch, num_candidates) == home:
            return profile
    raise AssertionError("no candidate profile hashed to the requested home shard")


def zero_gap_trace(workloads) -> RequestTrace:
    """All requests arriving at t = 0, ids in list order."""
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=0.0, workload=w)
            for i, w in enumerate(workloads)
        ]
    )


#: Small pool of distinct serving workloads shared by the property suites.
WORKLOAD_POOL = [
    WorkloadProfile(name="wl-s", num_nodes=20_000, num_edges=150_000, avg_degree=7.5,
                    batch_size=500),
    WorkloadProfile(name="wl-m", num_nodes=80_000, num_edges=900_000, avg_degree=11.25,
                    batch_size=1500),
    WorkloadProfile(name="wl-u", num_nodes=40_000, num_edges=300_000, avg_degree=7.5,
                    batch_size=800, update_fraction=0.2),
]

#: The seven compared systems' labels (static so strategies can sample them
#: at collection time without building the services).
SYSTEM_NAMES = ("AutoPre", "CPU", "DynPre", "FPGA", "GPU", "GSamp", "StatPre")

#: Tenant names shared by the multi-tenant suites.
TENANTS = ("ent", "free", "pro")


def make_bursty_tenant_trace(
    workloads,
    tenants=TENANTS,
    num_per_tenant: int = 20,
    base_rate_rps: float = 50.0,
    peak_rate_rps: float = 500.0,
    period_seconds: float = 0.5,
    burst_fraction: float = 0.3,
    seed: int = 0,
) -> RequestTrace:
    """One bursty stream per tenant, phases staggered across the period."""
    streams = [
        BurstyArrivals(
            workloads,
            base_rate_rps=base_rate_rps,
            peak_rate_rps=peak_rate_rps,
            period_seconds=period_seconds,
            burst_fraction=burst_fraction,
            phase_seconds=i * period_seconds / len(tenants),
            tenant=tenant,
            seed=seed + i,
        )
        for i, tenant in enumerate(tenants)
    ]
    return merge_traces([stream.trace(num_per_tenant) for stream in streams])


@contextlib.contextmanager
def chunked_calls():
    """Count the runs that take the chunked offline loop.

    Both fast paths return a lazy served log, so the path a replay took
    shows only in which loop ran: this spies on the name ``serve_trace``
    calls (``cluster.py`` imports ``_serve_trace_chunked`` by name) and
    yields the list of calls made inside the block.
    """
    calls = []
    original = cluster_module._serve_trace_chunked

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    cluster_module._serve_trace_chunked = spy
    try:
        yield calls
    finally:
        cluster_module._serve_trace_chunked = original


@pytest.fixture(scope="session")
def services():
    """The seven reference GNN services, built once per test session.

    Templates only: tests must ``replicate()`` (directly or through a
    cluster) before mutating state, so examples never leak state into each
    other.
    """
    return build_services()


@pytest.fixture
def serving_profile():
    """Factory fixture for small synthetic workload profiles."""
    return make_profile


@pytest.fixture
def small_trace() -> RequestTrace:
    """A 10-request open-loop Poisson trace over two small workloads."""
    return OpenLoopArrivals(
        [make_profile("a"), make_profile("b")], rate_rps=100.0, seed=3
    ).trace(10)


@pytest.fixture
def medium_trace() -> RequestTrace:
    """A 60-request open-loop Poisson trace over the shared workload pool."""
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=300.0, seed=7).trace(60)


@pytest.fixture
def cluster_factory(services):
    """Factory fixture: build a reference cluster for a named system.

    Defaults to per-request batches (``max_batch_size=1``) like the cluster
    itself; pass ``scheduler=BatchScheduler(...)`` to override.
    """

    def build(name: str, num_shards: int = 2, **kwargs) -> ShardedServiceCluster:
        kwargs.setdefault("scheduler", BatchScheduler(max_batch_size=1))
        return ShardedServiceCluster(services[name], num_shards=num_shards, **kwargs)

    return build


# ------------------------------------------------------------- graph helpers
def validate_conversion(coo: COOGraph, csc: CSCGraph) -> bool:
    """Return True when ``csc`` is a faithful conversion of ``coo``.

    The check is order-insensitive on the COO side: the multiset of edges must
    match and the CSC must be internally consistent.
    """
    csc.validate()
    if coo.num_edges != csc.num_edges or coo.num_nodes != csc.num_nodes:
        return False
    ref = coo_to_csc(coo)
    if not np.array_equal(ref.indptr, csc.indptr):
        return False
    # Within a destination group, source order may legitimately differ between
    # implementations; compare groups as multisets.
    for dst in range(csc.num_nodes):
        a = np.sort(ref.in_neighbors(dst))
        b = np.sort(csc.in_neighbors(dst))
        if not np.array_equal(a, b):
            return False
    return True


# ------------------------------------------------------------ graph fixtures
@pytest.fixture
def small_graph() -> COOGraph:
    """A small random graph exercised by most functional tests."""
    return power_law_graph(GraphSpec(num_nodes=60, num_edges=400, degree_skew=0.4, seed=7))


@pytest.fixture
def medium_graph() -> COOGraph:
    """A medium synthetic graph for kernel-level tests."""
    return power_law_graph(GraphSpec(num_nodes=300, num_edges=3000, degree_skew=0.6, seed=11))


@pytest.fixture
def small_csc(small_graph):
    """CSC conversion of the small graph."""
    return coo_to_csc(small_graph)


@pytest.fixture
def tiny_hardware() -> HardwareConfig:
    """A deliberately tiny hardware configuration for detailed emulation."""
    return HardwareConfig(num_upes=4, upe_width=16, num_scrs=2, scr_width=32)
