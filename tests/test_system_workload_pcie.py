"""Tests for workload profiles, the PCIe model, boards, power and metrics."""

from dataclasses import asdict, replace

import pytest

from repro.analysis.metrics import (
    EndToEndLatency,
    TaskLatencies,
    breakdown_percentages,
    geometric_mean,
    normalize,
    speedup,
)
from repro.analysis.report import Table, format_series, format_table
from repro.system.boards import BOARD_CATALOG, GPU_REFERENCE_PRICE, board_by_name, boards_by_tier
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.power import PowerModel, power_ratio
from repro.system.workload import WorkloadProfile


class TestWorkloadProfile:
    def test_from_dataset_full_scale(self):
        w = WorkloadProfile.from_dataset("AM")
        assert w.num_edges == 123_000_000
        assert w.total_selections == 3000 * 111
        assert w.sampled_edges == 3000 * 110
        assert w.graph_bytes == w.num_edges * 8

    def test_from_graph(self, small_graph):
        w = WorkloadProfile.from_graph(small_graph, batch_size=10_000)
        assert w.num_nodes == small_graph.num_nodes
        assert w.batch_size == small_graph.num_nodes  # capped

    def test_update_and_scaling_helpers(self):
        w = WorkloadProfile.from_dataset("SO")
        w2 = w.with_updates(0.2)
        assert w2.update_fraction == 0.2
        assert w2.update_bytes == int(w2.graph_bytes * 0.2)
        w3 = w.scaled_edges(2.0)
        assert w3.num_edges == 2 * w.num_edges

    def test_subgraph_smaller_than_graph(self):
        w = WorkloadProfile.from_dataset("AM")
        assert w.subgraph_bytes < w.graph_bytes

    def test_to_cost_params(self):
        w = WorkloadProfile.from_dataset("AX", k=5, num_layers=3, batch_size=100)
        params = w.to_cost_params()
        assert params.k == 5
        assert params.num_layers == 3
        assert params.num_edges == w.num_edges

    def test_per_seed_nodes_capped_by_graph(self):
        w = WorkloadProfile(name="tiny", num_nodes=20, num_edges=100, avg_degree=5, k=10, num_layers=2)
        assert w.per_seed_subgraph_nodes == 20

    @pytest.mark.parametrize("k", [0, 1, 2, 10])
    @pytest.mark.parametrize("num_layers", [1, 3, 6])
    @pytest.mark.parametrize("num_nodes", [1, 2, 50, 10**8])
    def test_cost_params_count_like_the_profile(self, k, num_layers, num_nodes):
        # The cost model ranks DynPre's candidates and the latency model
        # scores them, so both must see the same selection counts.  The
        # node counts fall below and above one seed's neighbourhood.
        w = WorkloadProfile(
            name="g", num_nodes=num_nodes, num_edges=4 * num_nodes, avg_degree=4.0,
            num_layers=num_layers, k=k, batch_size=7,
        )
        params = w.to_cost_params()
        assert params.total_selections == w.total_selections
        assert params.per_seed_subgraph_nodes == w.per_seed_subgraph_nodes
        uncapped = w.total_selections // w.batch_size
        assert w.per_seed_subgraph_nodes == min(uncapped, num_nodes)

    def test_cached_batch_key_stays_out_of_value_semantics(self):
        w = WorkloadProfile.from_dataset("AX")
        key = w.batch_key
        assert w.batch_key is key  # built once
        fresh = WorkloadProfile.from_dataset("AX")
        assert w == fresh and hash(w) == hash(fresh)
        assert asdict(w) == asdict(fresh) and "batch_key" not in asdict(w)
        degraded = replace(w, quality="degraded")
        assert degraded.batch_key == key[:-1] + ("degraded",)
        assert replace(w, batch_size=7).batch_key == key


class TestPCIe:
    def test_dma_main_scales(self):
        link = PCIeLink()
        assert link.dma_main(1 << 30) > link.dma_main(1 << 20)
        assert link.dma_main(0) == 0.0

    def test_bypass_slower_per_byte(self):
        link = PCIeLink()
        assert link.dma_bypass(1 << 20) > link.dma_main(1 << 20)

    def test_best_path_picks_bypass_for_small(self):
        link = PCIeLink()
        small = link.best_path(1 << 10)
        assert small == pytest.approx(link.dma_bypass(1 << 10))
        big = link.best_path(1 << 30)
        assert big == pytest.approx(link.dma_main(1 << 30))

    def test_transfer_breakdown_total(self):
        t = TransferBreakdown(host_to_accelerator=1.0, accelerator_to_gpu=0.5)
        assert t.total == 1.5


class TestBoards:
    def test_catalog_spans_range(self):
        luts = [b.luts for b in BOARD_CATALOG]
        assert min(luts) < 200_000 and max(luts) >= 4_000_000

    def test_lookup(self):
        assert board_by_name("Versal VPK180").luts == 4_100_000
        with pytest.raises(KeyError):
            board_by_name("nonexistent")

    def test_tiers(self):
        assert boards_by_tier("low")
        assert boards_by_tier("high")

    def test_normalized_price(self):
        board = board_by_name("Versal VPK180")
        assert board.normalized_price == pytest.approx(board.price_usd / GPU_REFERENCE_PRICE)


class TestPower:
    def test_power_ratio_matches_paper(self):
        assert power_ratio() == pytest.approx(19.7, rel=0.01)

    def test_fpga_preprocessing_energy_lower(self):
        latency = EndToEndLatency(
            preprocessing=TaskLatencies(ordering=0.05, reshaping=0.05), transfer=0.01, inference=0.05
        )
        fpga = PowerModel("fpga").energy(latency)
        gpu = PowerModel("gpu").energy(latency)
        assert fpga.preprocessing_joules < gpu.preprocessing_joules
        assert fpga.total_joules < gpu.total_joules
        assert fpga.inference_joules == gpu.inference_joules

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            PowerModel("tpu")


class TestMetrics:
    def test_task_latencies_arithmetic(self):
        a = TaskLatencies(ordering=1, reshaping=2, selecting=3, reindexing=4)
        b = a.scaled(0.5)
        assert b.total == pytest.approx(5.0)
        c = a + b
        assert c.total == pytest.approx(15.0)
        assert TaskLatencies.from_dict({"ordering": 2.0}).ordering == 2.0

    def test_end_to_end_shares(self):
        latency = EndToEndLatency(
            preprocessing=TaskLatencies(ordering=0.7), transfer=0.1, inference=0.2
        )
        assert latency.total == pytest.approx(1.0)
        assert latency.preprocessing_share == pytest.approx(0.8)

    def test_speedup_and_means(self):
        assert speedup(10, 2) == 5
        assert speedup(10, 0) == float("inf")
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert normalize([2, 4], 2) == [1.0, 2.0]
        assert normalize([2, 4], 0) == [0.0, 0.0]

    def test_breakdown_percentages(self):
        pct = breakdown_percentages({"a": 1.0, "b": 3.0})
        assert pct["a"] == pytest.approx(25.0)
        assert breakdown_percentages({"a": 0.0}) == {"a": 0.0}


class TestReport:
    def test_table_rendering(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "t" in text and "2.500" in text
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_series(self):
        text = format_series("s", "x", [1, 2], {"y": [10, 20]})
        assert "10" in text and "x" in text

    def test_format_table_scientific(self):
        text = format_table("t", ["v"], [[1e-6]])
        assert "e-06" in text
