"""Tests for the Table I cost model."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import loop_merge_rounds
from hypothesis import given, seed, settings, strategies as st

from repro.core.bitstream import generate_bitstream_library
from repro.core.config import HardwareConfig
from repro.core.cost_model import CandidateTable, CostModel, WorkloadParams
from repro.graph.datasets import DATASETS
from repro.system.workload import WorkloadProfile


def term_columns(model, params, table):
    """Each Table I term over ``table``, broadcast to one value per candidate."""
    return {
        f"{term}_cycles": np.broadcast_to(
            getattr(model, f"{term}_cycles")(params, table), table.num_upes.shape
        )
        for term in ("ordering", "selecting", "reshaping", "reindexing")
    }


def log2_merge_rounds(num_edges, upe_width):
    """The ``math.log2`` form of Table I's ``m``, kept as an oracle."""
    if num_edges <= upe_width:
        return 0
    return max(int(math.ceil(math.log2(num_edges / upe_width))) - 1, 0)


#: The staged library's UPE widths (powers of two, as HardwareConfig requires).
LIBRARY_WIDTHS = sorted({b.width for b in generate_bitstream_library().upe_variants})


@pytest.fixture
def workload():
    return WorkloadParams(num_nodes=100_000, num_edges=5_000_000, num_layers=2, k=10, batch_size=1000)


@pytest.fixture
def config():
    return HardwareConfig(num_upes=64, upe_width=64, num_scrs=4, scr_width=1024)


class TestFormulas:
    def test_merge_rounds(self):
        assert CostModel.merge_rounds(64, 64) == 0
        assert CostModel.merge_rounds(1024, 64) == 3
        assert CostModel.merge_rounds(10_000, 64) == 7

    def test_merge_rounds_are_exact_at_powers_of_two(self):
        """Every library width x ``2^r +- 3`` for ``r < 40``, scalar and as a
        column, where a rounded ``log2`` could slip: the count is one round
        fewer than merging the ``ceil(e / w)`` chunks takes, and equals the
        ``math.log2`` form wherever that form is exact (``e < 2^49``)."""
        widths = np.array(LIBRARY_WIDTHS, dtype=np.int64)
        for r in range(40):
            for delta in range(-3, 4):
                for w in LIBRARY_WIDTHS:
                    e = max(w * 2**r + delta, 0)
                    exact = max(loop_merge_rounds(-(-e // w)) - 1, 0)
                    assert CostModel.merge_rounds(e, w) == exact
                    assert CostModel.merge_rounds(e, widths)[LIBRARY_WIDTHS.index(w)] == exact
                    if e < 2**49:
                        assert exact == log2_merge_rounds(e, w)

    @seed(20240607)
    @given(st.integers(0, 2**48 - 1), st.sampled_from(LIBRARY_WIDTHS))
    @settings(max_examples=300, deadline=None)
    def test_merge_rounds_equal_the_log2_form_on_random_draws(self, num_edges, width):
        assert CostModel.merge_rounds(num_edges, width) == log2_merge_rounds(num_edges, width)

    def test_ordering_matches_table1(self, workload, config):
        model = CostModel()
        m = CostModel.merge_rounds(workload.num_edges, config.upe_width)
        expected = 2 * m * workload.num_edges / (config.num_upes * config.upe_width)
        assert model.ordering_cycles(workload, config) == pytest.approx(expected)

    def test_ordering_zero_edges(self, config):
        model = CostModel()
        empty = WorkloadParams(num_nodes=10, num_edges=0)
        assert model.ordering_cycles(empty, config) == 0.0

    def test_selecting_matches_table1(self, workload, config):
        model = CostModel()
        expected = workload.total_selections / config.num_upes
        assert model.selecting_cycles(workload, config) == pytest.approx(expected)

    def test_reshaping_matches_table1(self, workload, config):
        model = CostModel()
        expected = max(
            workload.num_nodes / config.num_scrs,
            workload.num_edges / config.scr_width,
        )
        assert model.reshaping_cycles(workload, config) == pytest.approx(expected)

    def test_total_selections_geometric_series(self):
        w = WorkloadParams(num_nodes=10**6, num_edges=10**7, num_layers=2, k=10, batch_size=3000)
        assert w.total_selections == 3000 * 111
        w1 = WorkloadParams(num_nodes=10**6, num_edges=10**7, num_layers=1, k=1, batch_size=5)
        assert w1.total_selections == 10

    def test_per_seed_subgraph_nodes(self):
        w = WorkloadParams(num_nodes=10**6, num_edges=10**7, num_layers=2, k=10, batch_size=3000)
        assert w.per_seed_subgraph_nodes == 111
        small = WorkloadParams(num_nodes=50, num_edges=500, num_layers=2, k=10, batch_size=3)
        assert small.per_seed_subgraph_nodes == 50


class TestScaling:
    def test_more_upes_less_selection_time(self, workload):
        model = CostModel()
        small = HardwareConfig(num_upes=16, upe_width=64)
        big = HardwareConfig(num_upes=256, upe_width=64)
        assert model.selecting_cycles(workload, big) < model.selecting_cycles(workload, small)

    def test_wider_scr_less_reshaping_until_node_bound(self, workload):
        model = CostModel()
        narrow = HardwareConfig(num_scrs=1, scr_width=64)
        wide = HardwareConfig(num_scrs=1, scr_width=4096)
        assert model.reshaping_cycles(workload, wide) <= model.reshaping_cycles(workload, narrow)

    def test_reshaping_saturates_at_node_bound(self, workload):
        # Beyond a certain width, the node-side term dominates (Fig. 23a).
        model = CostModel()
        wide = HardwareConfig(num_scrs=1, scr_width=4096)
        wider = HardwareConfig(num_scrs=1, scr_width=8192)
        assert model.reshaping_cycles(workload, wide) == model.reshaping_cycles(workload, wider)

    def test_estimate_latency_positive(self, workload, config):
        estimate = CostModel().estimate(workload, config)
        assert estimate.total_cycles > 0
        assert estimate.latency_seconds() > 0
        assert set(estimate.breakdown()) == {"ordering", "selecting", "reshaping", "reindexing"}
        # Python floats, not NumPy scalars: the model goldens compare reprs.
        assert all(type(value) is float for value in estimate.breakdown().values())


class TestSelection:
    def test_best_configuration_picks_lowest(self, workload):
        model = CostModel()
        candidates = [
            HardwareConfig(num_upes=4, upe_width=64, num_scrs=1, scr_width=64),
            HardwareConfig(num_upes=128, upe_width=64, num_scrs=8, scr_width=1024),
        ]
        best, estimate = model.best_configuration(workload, candidates)
        assert best is candidates[1]
        assert estimate.total_cycles <= model.estimate(workload, candidates[0]).total_cycles

    def test_best_configuration_empty_raises(self, workload):
        with pytest.raises(ValueError):
            CostModel().best_configuration(workload, [])

    def test_ranking_sorted(self, workload):
        model = CostModel()
        candidates = [
            HardwareConfig(num_upes=4, upe_width=64, num_scrs=1, scr_width=64),
            HardwareConfig(num_upes=32, upe_width=64, num_scrs=2, scr_width=512),
            HardwareConfig(num_upes=128, upe_width=64, num_scrs=8, scr_width=1024),
        ]
        ranking = model.ranking(workload, CandidateTable(candidates)).tolist()
        assert sorted(ranking) == [0, 1, 2]
        totals = [model.estimate(workload, candidates[i]).total_cycles for i in ranking]
        assert totals == sorted(totals)

    def test_exact_ties_keep_candidate_order(self):
        # Node-bound reshaping and one-scan reindexing: the SCR width does
        # not move the total, so these two candidates tie exactly.
        workload = WorkloadParams(num_nodes=100_000, num_edges=50_000, batch_size=10)
        model = CostModel()
        wide = HardwareConfig(num_upes=64, upe_width=64, num_scrs=4, scr_width=256)
        narrow = HardwareConfig(num_upes=64, upe_width=64, num_scrs=4, scr_width=128)
        slow = HardwareConfig(num_upes=8, upe_width=64, num_scrs=4, scr_width=128)
        assert model.estimate(workload, wide).total_cycles == (
            model.estimate(workload, narrow).total_cycles
        )
        for candidates in ([slow, wide, narrow], [slow, narrow, wide]):
            assert model.ranking(workload, CandidateTable(candidates)).tolist() == [1, 2, 0]
            assert model.best_configuration(workload, candidates)[0] is candidates[1]

    def test_duplicate_candidates_are_all_ranked(self, workload, config):
        model = CostModel()
        other = HardwareConfig(num_upes=4, upe_width=64, num_scrs=1, scr_width=64)
        twin = replace(config)
        table = CandidateTable([other, config, twin, config])
        assert model.ranking(workload, table).tolist() == [1, 2, 3, 0]
        assert model.best_configuration(workload, [other, config, twin])[0] is config
        assert model.best_configuration(workload, [twin, config])[0] is twin

    def test_single_candidate(self, workload, config):
        model = CostModel()
        assert model.ranking(workload, CandidateTable([config])).tolist() == [0]
        best, estimate = model.best_configuration(workload, [config])
        assert best is config
        assert estimate == model.estimate(workload, config)

    def test_empty_candidate_list(self, workload):
        model = CostModel()
        assert model.ranking(workload, CandidateTable([])).tolist() == []
        with pytest.raises(ValueError):
            model.best_configuration(workload, [])

    def test_array_ranking_equals_the_scalar_sort(self):
        """Every term over the staged library's table equals the one-config
        estimates, value for value, and the ranking equals a stable sort of
        their totals, over a grid of workloads and a 0-edge graph."""
        model = CostModel()
        configs = generate_bitstream_library().configurations()
        table = CandidateTable(configs)
        workloads = [WorkloadParams(num_nodes=10, num_edges=0, batch_size=4)] + [
            WorkloadProfile.from_dataset(
                key, k=k, batch_size=batch_size, num_layers=layers
            ).to_cost_params()
            for key in DATASETS
            for batch_size in (1, 1000, 12000)
            for k in (0, 1, 10, 25)
            for layers in (1, 3)
        ]
        for params in workloads:
            estimates = [model.estimate(params, c) for c in configs]
            for term, values in term_columns(model, params, table).items():
                assert values.tolist() == [getattr(est, term) for est in estimates]
            expected = sorted(range(len(configs)), key=lambda i: estimates[i].total_cycles)
            assert model.ranking(params, table).tolist() == expected
            assert model.best_configuration(params, configs)[0] is configs[expected[0]]

    def test_candidate_table_columns(self):
        configs = generate_bitstream_library().configurations()
        table = CandidateTable(configs)
        assert table.configs == tuple(configs)
        for field in ("num_upes", "upe_width", "num_scrs", "scr_width"):
            column = getattr(table, field)
            assert column.dtype == np.int64
            assert column.tolist() == [getattr(config, field) for config in configs]
        assert CandidateTable([]).num_upes.shape == (0,)

    def test_from_graph_constructor(self, small_graph):
        params = WorkloadParams.from_graph(small_graph, num_layers=3, k=5, batch_size=7)
        assert params.num_nodes == small_graph.num_nodes
        assert params.num_edges == small_graph.num_edges
        assert params.num_layers == 3
