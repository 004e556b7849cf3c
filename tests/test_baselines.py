"""Tests for the compared preprocessing systems (CPU/GPU/GSamp/FPGA/others)."""

import pytest

from repro.baselines import (
    CPUPreprocessingSystem,
    FPGASamplerSystem,
    GPUPreprocessingSystem,
    GPUSerializationAnalysis,
    GSampSystem,
    OTHER_ACCELERATORS,
    AcceleratorDeployment,
    SingleFunctionAccelerator,
)
from repro.baselines.calibration import CPU_CALIBRATION, GPU_CALIBRATION
from repro.baselines.cpu import software_task_latencies
from repro.system.workload import WorkloadProfile


@pytest.fixture
def small_workload():
    return WorkloadProfile.from_dataset("PH")


@pytest.fixture
def large_workload():
    return WorkloadProfile.from_dataset("AM")


class TestSoftwareModels:
    def test_cpu_slower_than_gpu(self, large_workload):
        cpu = CPUPreprocessingSystem().evaluate(large_workload)
        gpu = GPUPreprocessingSystem().evaluate(large_workload)
        assert cpu.preprocessing.total > gpu.preprocessing.total

    def test_conversion_dominates_large_graphs(self, large_workload):
        gpu = software_task_latencies(large_workload, GPU_CALIBRATION)
        conversion = gpu.ordering + gpu.reshaping
        sampling = gpu.selecting + gpu.reindexing
        assert conversion > sampling

    def test_sampling_dominates_small_graphs(self, small_workload):
        gpu = software_task_latencies(small_workload, GPU_CALIBRATION)
        conversion = gpu.ordering + gpu.reshaping
        sampling = gpu.selecting + gpu.reindexing
        assert sampling > conversion

    def test_latency_scales_with_edges(self):
        small = software_task_latencies(WorkloadProfile.from_dataset("PH"), CPU_CALIBRATION)
        large = software_task_latencies(WorkloadProfile.from_dataset("TB"), CPU_CALIBRATION)
        assert large.total > small.total

    def test_gpu_transfer_is_full_graph(self, large_workload):
        gpu = GPUPreprocessingSystem().evaluate(large_workload)
        cpu = CPUPreprocessingSystem().evaluate(large_workload)
        assert gpu.transfers.host_to_gpu > cpu.transfers.host_to_gpu

    def test_bandwidth_utilization_bounds(self, large_workload):
        for system in (CPUPreprocessingSystem(), GPUPreprocessingSystem()):
            report = system.evaluate(large_workload)
            assert 0.0 <= report.bandwidth_utilization <= 1.0


class TestSamplingAccelerators:
    def test_gsamp_speeds_up_sampling_only(self, small_workload):
        gpu = GPUPreprocessingSystem().evaluate(small_workload)
        gsamp = GSampSystem().evaluate(small_workload)
        assert gsamp.preprocessing.selecting < gpu.preprocessing.selecting
        assert gsamp.preprocessing.ordering == pytest.approx(gpu.preprocessing.ordering)

    def test_fpga_sampler_has_extra_transfers(self, large_workload):
        fpga = FPGASamplerSystem().evaluate(large_workload)
        gpu = GPUPreprocessingSystem().evaluate(large_workload)
        assert fpga.transfers.total > gpu.transfers.total
        assert fpga.preprocessing.selecting < gpu.preprocessing.selecting


class TestSerializationAnalysis:
    def test_fraction_in_range(self, small_workload, large_workload):
        analysis = GPUSerializationAnalysis()
        for workload in (small_workload, large_workload):
            result = analysis.analyze(workload)
            assert 0.0 < result["serialized_fraction"] < 1.0

    def test_serial_split_sums_to_100(self, large_workload):
        analysis = GPUSerializationAnalysis()
        result = analysis.analyze(large_workload)
        split = [v for k, v in result.items() if k.startswith("serial_share_")]
        assert sum(split) == pytest.approx(100.0)

    def test_ordering_excluded_from_serial_split(self, large_workload):
        analysis = GPUSerializationAnalysis()
        result = analysis.analyze(large_workload)
        assert "serial_share_ordering" not in result


class TestOtherAccelerators:
    def test_four_designs(self):
        assert len(OTHER_ACCELERATORS) == 4

    @pytest.mark.parametrize("spec", OTHER_ACCELERATORS, ids=lambda s: s.key)
    def test_deployment_ladder_improves(self, spec, large_workload):
        pure = SingleFunctionAccelerator(spec, AcceleratorDeployment.PURE).evaluate(large_workload)
        with_scr = SingleFunctionAccelerator(spec, AcceleratorDeployment.WITH_SCR).evaluate(large_workload)
        auto = SingleFunctionAccelerator(spec, AcceleratorDeployment.AUTO).evaluate(large_workload)
        assert with_scr.total <= pure.total * 1.05
        assert auto.total <= with_scr.total * 1.05

    def test_pure_accelerates_its_stage(self, large_workload):
        spec = OTHER_ACCELERATORS[0]  # merge sorter: ordering
        gpu = GPUPreprocessingSystem().evaluate(large_workload)
        pure = SingleFunctionAccelerator(spec, AcceleratorDeployment.PURE).evaluate(large_workload)
        assert pure.preprocessing.ordering < gpu.preprocessing.ordering

    def test_auto_deployment_drops_graph_upload(self, large_workload):
        spec = OTHER_ACCELERATORS[2]
        pure = SingleFunctionAccelerator(spec, AcceleratorDeployment.PURE).evaluate(large_workload)
        auto = SingleFunctionAccelerator(spec, AcceleratorDeployment.AUTO).evaluate(large_workload)
        assert auto.transfers.total < pure.transfers.total
