"""Tests for the end-to-end GNN service and the Fig. 18 system set."""

import pytest

from repro.analysis.metrics import geometric_mean
from repro.graph.datasets import DATASET_ORDER
from repro.system.service import GNNService, build_reference_systems, build_services
from repro.system.workload import WorkloadProfile


@pytest.fixture(scope="module")
def services():
    return build_services()


class TestReferenceSystems:
    def test_seven_systems(self, services):
        assert set(services) == {"CPU", "GPU", "GSamp", "FPGA", "AutoPre", "StatPre", "DynPre"}

    def test_names_match_keys(self):
        for key, system in build_reference_systems().items():
            assert system.name == key


class TestServe:
    def test_report_components(self, services):
        report = services["GPU"].serve(WorkloadProfile.from_dataset("AX"))
        assert report.total_seconds > 0
        assert 0 < report.preprocessing_share < 1
        assert report.energy.total_joules > 0
        breakdown = report.breakdown()
        assert set(breakdown) >= {"ordering", "reshaping", "selecting", "reindexing", "transfer", "inference"}

    def test_paper_ordering_of_systems(self, services):
        """End-to-end latency ordering follows the paper: CPU > GPU > AutoGNN."""
        w = WorkloadProfile.from_dataset("AM")
        totals = {}
        for name, service in services.items():
            service.serve(w)
            totals[name] = service.serve(w).total_seconds
        assert totals["CPU"] > totals["GPU"]
        assert totals["GPU"] > totals["StatPre"]
        assert totals["GPU"] > totals["DynPre"]

    def test_gpu_speedup_over_cpu_near_paper(self, services):
        """Geomean GPU speedup over CPU lands in the paper's neighbourhood (3.4x)."""
        ratios = []
        for key in DATASET_ORDER:
            w = WorkloadProfile.from_dataset(key)
            cpu = services["CPU"].serve(w).total_seconds
            gpu = services["GPU"].serve(w).total_seconds
            ratios.append(cpu / gpu)
        assert 2.0 <= geometric_mean(ratios) <= 5.5

    def test_autognn_speedup_over_cpu_large(self, services):
        """AutoGNN's end-to-end advantage grows with graph size."""
        small = WorkloadProfile.from_dataset("PH")
        large = WorkloadProfile.from_dataset("TB")
        def ratio(w):
            cpu = services["CPU"].serve(w).total_seconds
            services["DynPre"].serve(w)
            dyn = services["DynPre"].serve(w).total_seconds
            return cpu / dyn
        assert ratio(large) > ratio(small)

    def test_preprocessing_share_grows_with_graph(self, services):
        small = services["GPU"].serve(WorkloadProfile.from_dataset("PH"))
        large = services["GPU"].serve(WorkloadProfile.from_dataset("TB"))
        assert large.preprocessing_share > small.preprocessing_share

    def test_energy_advantage_of_autognn(self, services):
        w = WorkloadProfile.from_dataset("AM")
        gpu = services["GPU"].serve(w)
        services["DynPre"].serve(w)
        dyn = services["DynPre"].serve(w)
        assert dyn.energy.total_joules < gpu.energy.total_joules

    def test_serve_many(self, services):
        workloads = [WorkloadProfile.from_dataset(k) for k in ("PH", "AX")]
        reports = services["CPU"].serve_many(workloads)
        assert len(reports) == 2

    def test_estimate_cache_keyed_by_reconfiguration_state(self, services):
        # Regression: the cost cache used to be keyed by workload shape only,
        # so an estimate taken *after* a reconfiguration silently reused the
        # pre-reconfigure cost.  A DynPre shard that reconfigures between
        # estimates must re-price from its new bitstream state.
        service = services["DynPre"].replicate()
        probe = WorkloadProfile(
            name="deep", num_nodes=100_000, num_edges=1_000_000, avg_degree=10.0,
            batch_size=500, k=5, num_layers=4,
        )
        trigger = WorkloadProfile(
            name="tiny", num_nodes=2_000, num_edges=8_000, avg_degree=4.0,
            batch_size=16, k=2, num_layers=1,
        )
        before = service.estimate_service_seconds(probe)
        config_before = service.preprocessing.config
        service.serve(trigger)
        assert service.preprocessing.config != config_before, (
            "test needs a workload that actually triggers a reconfiguration"
        )
        after = service.estimate_service_seconds(probe)
        fresh = service.preprocessing.replicate().evaluate(probe).total + service.inference_latency(
            probe
        )
        assert after == fresh
        assert after != before

    def test_estimate_cache_hits_when_state_unchanged(self, services):
        service = services["CPU"].replicate()
        w = WorkloadProfile.from_dataset("PH")
        assert service.estimate_service_seconds(w) == service.estimate_service_seconds(w)
        assert len(service._cost_cache) == 1

    def test_power_platform_defaults(self):
        systems = build_reference_systems()
        assert GNNService(systems["CPU"]).power.preprocessing_platform == "cpu"
        assert GNNService(systems["GPU"]).power.preprocessing_platform == "gpu"
        assert GNNService(systems["DynPre"]).power.preprocessing_platform == "fpga"

    @pytest.mark.parametrize(
        "name, platform",
        [("CPU", "cpu"), ("GPU", "gpu"), ("GSamp", "gpu"), ("FPGA", "fpga"), ("DynPre", "fpga")],
    )
    def test_power_platform_survives_a_rename(self, name, platform):
        """The power model follows the system's class, not its display name:
        a GPU renamed ``GPU-rack0`` is still billed at GPU power."""
        w = WorkloadProfile.from_dataset("PH")
        expected = GNNService(build_reference_systems()[name]).serve(w).energy
        system = build_reference_systems()[name]
        system.name = f"{name}-rack0"
        service = GNNService(system)
        assert service.power.preprocessing_platform == platform
        assert all(r.power.preprocessing_platform == platform for r in service.replicas(2))
        assert service.serve(w).energy == expected
