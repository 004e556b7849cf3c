"""Tests for the AutoGNN system variants."""

import pytest

import repro.system.variants as variants
from repro.core.bitstream import BitstreamLibrary, generate_bitstream_library
from repro.core.reconfig import FULL_RECONFIG_SECONDS
from repro.graph.datasets import DATASET_ORDER
from repro.system.boards import board_by_name
from repro.system.variants import (
    HOST_SOFTWARE_OVERHEAD_SECONDS,
    RECONFIGURE_THRESHOLD,
    AutoPreSystem,
    DynPreSystem,
    StatPreSystem,
    tuned_config_for,
)
from repro.system.workload import WorkloadProfile


@pytest.fixture
def workload_large():
    return WorkloadProfile.from_dataset("AM")


@pytest.fixture
def workload_small():
    return WorkloadProfile.from_dataset("AX")


class TestVariants:
    def test_all_variants_positive_latency(self, workload_large):
        for system in (AutoPreSystem(), StatPreSystem(), DynPreSystem()):
            report = system.evaluate(workload_large)
            assert report.preprocessing.total > 0
            assert report.transfers.total > 0
            assert 0 <= report.bandwidth_utilization <= 1

    @pytest.mark.parametrize("board_name", ["Artix-7 200T", "Kintex UltraScale KU115"])
    def test_bandwidth_utilization_is_a_fraction_of_the_boards_own_peak(
        self, board_name, workload_large
    ):
        board = board_by_name(board_name).resources()
        system = StatPreSystem(board=board)
        report = system.evaluate(workload_large)
        achieved = system._task_bytes(workload_large).total / report.preprocessing.total
        assert system.peak_bandwidth == board.dram_bandwidth < 64e9
        assert report.bandwidth_utilization == min(achieved / board.dram_bandwidth, 1.0)
        # A streaming pass on a narrow-memory board is bandwidth bound: it
        # keeps its own DRAM about as busy as the VPK180 pass keeps 64 GB/s.
        assert 0.9 < report.bandwidth_utilization <= 1.0

    def test_bandwidth_utilization_follows_a_given_device_bandwidth(self, workload_large):
        system = StatPreSystem(device_bandwidth=16e9)
        report = system.evaluate(workload_large)
        achieved = system._task_bytes(workload_large).total / report.preprocessing.total
        assert system.peak_bandwidth == 16e9
        assert report.bandwidth_utilization == min(achieved / 16e9, 1.0)
        assert report.bandwidth_utilization > StatPreSystem().evaluate(
            workload_large
        ).bandwidth_utilization

    def test_autopre_not_faster_than_statpre(self, workload_large):
        auto = AutoPreSystem().evaluate(workload_large)
        stat = StatPreSystem().evaluate(workload_large)
        assert stat.preprocessing.total <= auto.preprocessing.total * 1.001

    def test_lut_utilization_ordering(self, workload_large):
        auto = AutoPreSystem().evaluate(workload_large)
        stat = StatPreSystem().evaluate(workload_large)
        assert auto.lut_utilization < stat.lut_utilization
        assert 0 < auto.lut_utilization < 1
        assert 0 < stat.lut_utilization <= 1

    def test_transfers_only_updates_and_subgraph(self, workload_large):
        report = StatPreSystem().evaluate(workload_large)
        assert report.transfers.host_to_gpu == 0.0
        assert report.transfers.gpu_to_accelerator == 0.0
        assert report.transfers.host_to_accelerator > 0
        assert report.transfers.accelerator_to_gpu > 0

    def test_autognn_beats_gpu_baseline(self, workload_large):
        from repro.baselines.gpu import GPUPreprocessingSystem

        gpu = GPUPreprocessingSystem().evaluate(workload_large)
        stat = StatPreSystem().evaluate(workload_large)
        assert stat.total < gpu.total

    def test_tuned_config_fits(self, workload_small):
        library = generate_bitstream_library()
        config = tuned_config_for(workload_small, library)
        assert config.fits()

    def test_statpre_tuned_for(self, workload_small):
        config = tuned_config_for(workload_small, generate_bitstream_library())
        system = StatPreSystem(config=config)
        assert system.config.fits()
        report = system.evaluate(workload_small)
        assert report.reconfiguration == 0.0
        assert system.config is config


class TestDynPre:
    def test_reconfigures_for_new_workload(self, workload_small, workload_large):
        system = DynPreSystem()
        system.evaluate(workload_small)
        config_after_small = system.config.key()
        second = system.evaluate(workload_large)
        # Either the configuration changed (reconfiguration charged) or the
        # cost model judged the current one adequate.
        if system.config.key() != config_after_small:
            assert second.reconfiguration > 0
        else:
            assert second.reconfiguration == 0.0

    def test_steady_state_has_no_reconfiguration(self, workload_large):
        system = DynPreSystem()
        system.evaluate(workload_large)
        steady = system.evaluate(workload_large)
        assert steady.reconfiguration == 0.0

    def test_reconfiguration_bounded_by_full_cost(self, workload_small):
        system = DynPreSystem()
        report = system.evaluate(workload_small)
        assert report.reconfiguration <= FULL_RECONFIG_SECONDS + 1e-9

    def test_dynpre_not_worse_than_statpre_steady_state(self, workload_small):
        tuned_mv = tuned_config_for(WorkloadProfile.from_dataset("MV"), generate_bitstream_library())
        stat = StatPreSystem(config=tuned_mv)
        dyn = DynPreSystem(config=tuned_mv)
        dyn.evaluate(workload_small)  # allow reconfiguration
        stat_report = stat.evaluate(workload_small)
        dyn_report = dyn.evaluate(workload_small)
        assert dyn_report.preprocessing.total <= stat_report.preprocessing.total * 1.001

    def test_decision_follows_the_threshold(self):
        """A fresh DynPre reprograms exactly when the chosen pair beats the
        loaded one by ``RECONFIGURE_THRESHOLD``."""
        for name in ("AX", "SO", "MV", "AM"):
            system = DynPreSystem()
            workload = WorkloadProfile.from_dataset(name)
            loaded = system.config
            best = system.choose_config(workload)
            current = system._latency_with(loaded, workload)
            gain = (current - system._latency_with(best, workload)) / current
            worth_it = best.key() != loaded.key() and gain >= RECONFIGURE_THRESHOLD
            assert system.configured_for(workload) is not worth_it
            report = system.evaluate(workload)
            assert (report.reconfiguration > 0) is worth_it
            assert system.config == (best if worth_it else loaded)

    def test_threshold_above_any_gain_never_reconfigures(self, monkeypatch):
        monkeypatch.setattr(variants, "RECONFIGURE_THRESHOLD", 1.0)
        system = DynPreSystem()
        loaded = system.config
        for name in ("AX", "SO", "AM"):
            assert system.evaluate(WorkloadProfile.from_dataset(name)).reconfiguration == 0.0
        assert system.config is loaded
        assert system.reconfig.num_reconfigurations == 0

    def test_apply_state_loads_the_chosen_config(self):
        system = DynPreSystem()
        workload = WorkloadProfile.from_dataset("SO")
        target = system.choose_config(workload)
        changed = target.key() != system.config.key()
        system.apply_state(target)
        assert system.config == target
        assert system.reconfig.num_reconfigurations == int(changed)
        # The loaded pair is the chosen one, so the next pass keeps it.
        assert system.configured_for(workload)
        assert system.evaluate(workload).reconfiguration == 0.0
        system.apply_state(system.state_key())
        assert system.reconfig.num_reconfigurations == int(changed)

    def test_update_transfer_is_incremental(self, workload_large):
        """The graph stays resident: a pass moves only its updates in."""
        system = DynPreSystem()
        no_updates = system.evaluate(workload_large.with_updates(0.0))
        assert no_updates.transfers.host_to_accelerator == HOST_SOFTWARE_OVERHEAD_SECONDS
        small = system.evaluate(workload_large.with_updates(0.01)).transfers.host_to_accelerator
        large = system.evaluate(workload_large.with_updates(0.1)).transfers.host_to_accelerator
        full_upload = HOST_SOFTWARE_OVERHEAD_SECONDS + system.pcie.dma_main(workload_large.graph_bytes)
        assert HOST_SOFTWARE_OVERHEAD_SECONDS < small < large < full_upload

    def test_candidate_list_built_once_for_all_replicas(self, monkeypatch, workload_small):
        builds = []
        build = BitstreamLibrary.configurations

        def counting(library):
            builds.append(library)
            return build(library)

        monkeypatch.setattr(BitstreamLibrary, "configurations", counting)
        system = DynPreSystem()
        clones = [system.replicate(), *system.replicas(3)]
        for clone in clones:
            clone.evaluate(workload_small)
        system.evaluate(workload_small)
        assert len(builds) == 1
        assert all(clone._candidates is system._candidates for clone in clones)

    def test_shortlist_memo_does_not_change_the_choice(self):
        """``choose_config`` with a cold shortlist memo equals the choice
        with a warm one, for every Table II dataset x batch size {1000,
        3000} under three loaded configurations."""
        system = DynPreSystem()
        staged = system.library.configurations()
        loaded_configs = [system.config, staged[0], staged[-1]]
        workloads = [
            WorkloadProfile.from_dataset(key, batch_size=batch_size)
            for key in DATASET_ORDER
            for batch_size in (1000, 3000)
        ]
        cold = {}
        for loaded in loaded_configs:
            system.config = loaded
            for workload in workloads:
                system._shortlists = {}
                cold[loaded, workload] = system.choose_config(workload)
        system._shortlists = {}
        for loaded in loaded_configs:
            system.config = loaded
            for workload in workloads:
                assert system.choose_config(workload) == cold[loaded, workload]
        # One ranking per distinct cost-parameter set, whatever is loaded.
        assert len(system._shortlists) == len(
            {workload.to_cost_params() for workload in workloads}
        )

    def test_falls_back_to_the_loaded_config_without_staged_bitstreams(
        self, workload_small, workload_large
    ):
        system = DynPreSystem(library=BitstreamLibrary())
        loaded = system.config
        assert system._candidates.configs == (loaded,)
        assert system.choose_config(workload_small) == loaded
        for workload in (workload_small, workload_large):
            assert system.configured_for(workload)
            assert system.evaluate(workload).reconfiguration == 0.0
        assert system.config is loaded
