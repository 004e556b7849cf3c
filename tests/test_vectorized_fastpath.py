"""The vectorized fast path against its per-element oracles.

The contract (DESIGN.md, "The fast path and its oracles"): for the same
inputs and seed, the sampler and reindexer every path runs return what the
oracles ``node_wise_sample_reference`` and ``reindex_edges_reference`` return
(sample, ``SelectionStats``, reindexed subgraph), the closed-form occupancies
equal the ones the oracle's walk records, and the device charges the cycles of
what the oracles counted.
"""

import math
import time

import numpy as np
import pytest
from conftest import reindex_mapping_sizes
from hypothesis import example, given, seed, settings, strategies as st

from repro.core.accelerator import AutoGNNDevice
from repro.core.config import HardwareConfig
from repro.core.kernels import (
    SCRKernel,
    UPEKernel,
    reindexer_scan_width,
    reindexing_cycle_count,
    reindexing_cycles_of,
    reshaping_cycle_count,
    selection_cycle_count,
)
from repro.graph.convert import coo_to_csc, csc_from_ordered, edge_order
from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.dynamic import DynamicGraph, UpdateBatch
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.reindex import (
    factorize_first_occurrence,
    interleave_endpoints,
    reindex_edges,
    reindex_edges_reference,
    reindex_subgraph,
)
from repro.graph.sampling import (
    SampledSubgraph,
    dense_vid_range,
    node_wise_sample,
    node_wise_sample_reference,
    node_wise_sample_with_stats,
)
from repro.preprocessing.pipeline import PreprocessingConfig, choose_batch_nodes, preprocess


@pytest.fixture
def graph():
    return power_law_graph(GraphSpec(num_nodes=400, num_edges=5000, degree_skew=0.6, seed=13))


@pytest.fixture
def csc(graph):
    return coo_to_csc(graph)


@pytest.fixture
def config():
    return HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64)


def assert_samples_equal(a: SampledSubgraph, b: SampledSubgraph):
    assert a.num_layers == b.num_layers
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.src, lb.src)
        assert np.array_equal(la.dst, lb.dst)
    assert np.array_equal(a.sampled_nodes, b.sampled_nodes)
    assert np.array_equal(a.batch_nodes, b.batch_nodes)
    assert a.num_nodes == b.num_nodes


def assert_reindex_equal(got, want):
    assert got.mapping == want.mapping
    assert np.array_equal(got.edges.src, want.edges.src)
    assert np.array_equal(got.edges.dst, want.edges.dst)
    assert got.edges.num_nodes == want.edges.num_nodes
    assert np.array_equal(got.original_vids, want.original_vids)


class TestCSCBatchHelpers:
    def test_in_neighbors_batch_matches_per_node(self, csc):
        nodes = np.arange(0, csc.num_nodes, 3)
        flat, offsets = csc.in_neighbors_batch(nodes)
        for i, node in enumerate(nodes.tolist()):
            segment = flat[int(offsets[i]) : int(offsets[i + 1])]
            assert np.array_equal(segment, csc.in_neighbors(node))

    def test_in_degrees_of_matches_in_degree(self, csc):
        nodes = np.arange(csc.num_nodes)
        degs = csc.in_degrees_of(nodes)
        for node in range(csc.num_nodes):
            assert int(degs[node]) == csc.in_degree(node)

    def test_out_of_range_rejected(self, csc):
        with pytest.raises(IndexError):
            csc.in_neighbors_batch(np.array([csc.num_nodes]))
        with pytest.raises(IndexError):
            csc.in_degrees_of(np.array([-1]))


class TestSamplerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_node_wise_bit_identical(self, csc, seed):
        batch = list(range(0, 60, 2))
        ref, ref_stats = node_wise_sample_reference(csc, batch, 4, 3, seed)
        vec, vec_stats = node_wise_sample_with_stats(csc, batch, 4, 3, seed=seed)
        assert_samples_equal(ref, vec)
        assert ref_stats == vec_stats
        assert vec_stats.draws > 0

    def test_vectorized_deterministic(self, csc):
        a = node_wise_sample(csc, [0, 1, 5], k=3, num_layers=2, seed=9)
        b = node_wise_sample(csc, [0, 1, 5], k=3, num_layers=2, seed=9)
        assert_samples_equal(a, b)

    def test_vectorized_per_node_cap_unique_membership(self, csc):
        k = 4
        sample = node_wise_sample(csc, list(range(10)), k=k, num_layers=2, seed=2)
        for layer in sample.layers:
            for dst in np.unique(layer.dst):
                srcs = layer.src[layer.dst == dst]
                assert srcs.shape[0] <= k
                assert len(set(srcs.tolist())) == srcs.shape[0]
                neighbors = set(csc.in_neighbors(int(dst)).tolist())
                assert set(srcs.tolist()).issubset(neighbors)


class TestReindexEquivalence:
    def test_factorize_lut_matches_sort_path(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 50, size=500).astype(VID_DTYPE)
        codes_lut, orig_lut = factorize_first_occurrence(values, num_vids=50)
        codes_gen, orig_gen = factorize_first_occurrence(values)
        assert np.array_equal(codes_lut, codes_gen)
        assert np.array_equal(orig_lut, orig_gen)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-threshold", "above-threshold"])
    def test_factorize_either_side_of_the_dense_range_rule(self, extra):
        """The VID range at the shared threshold scatters, one above sorts;
        both number the endpoints as the oracle's walk does."""
        rng = np.random.default_rng(11)
        num_edges = 300
        num_vids = 4 * (2 * num_edges) + 1024 + extra
        assert dense_vid_range(num_vids, 2 * num_edges) == (extra == 0)
        # Endpoints include the range's last VID, so a short table would fail.
        src = rng.integers(0, num_vids, size=num_edges)
        dst = rng.integers(num_vids - 40, num_vids, size=num_edges)
        codes, original = factorize_first_occurrence(
            interleave_endpoints(src, dst), num_vids=num_vids
        )
        want, occupancy = reindex_edges_reference(src, dst)
        assert np.array_equal(codes[1::2], want.edges.src)
        assert np.array_equal(codes[0::2], want.edges.dst)
        assert np.array_equal(original, want.original_vids)
        assert np.array_equal(reindex_mapping_sizes(codes), occupancy)

    def test_mapping_sizes_closed_form(self):
        rng = np.random.default_rng(6)
        values = rng.integers(0, 30, size=200).astype(VID_DTYPE)
        codes, _ = factorize_first_occurrence(values)
        sizes = reindex_mapping_sizes(codes)
        mapping = {}
        expected = []
        for v in values.tolist():
            expected.append(max(len(mapping), 1))
            if v not in mapping:
                mapping[v] = len(mapping)
        assert sizes.tolist() == expected

    def test_interleave_order(self):
        src = np.array([1, 2], dtype=VID_DTYPE)
        dst = np.array([3, 4], dtype=VID_DTYPE)
        assert interleave_endpoints(src, dst).tolist() == [3, 1, 4, 2]


#: Reindexer scan widths ``W = num_scrs * scr_width`` and configs with them.
SCAN_WIDTH_CONFIGS = {
    1: HardwareConfig(num_scrs=1, scr_width=1),
    2: HardwareConfig(num_scrs=1, scr_width=2),
    3: HardwareConfig(num_scrs=3, scr_width=1),
    7: HardwareConfig(num_scrs=7, scr_width=1),
    4096: HardwareConfig(),
    16384: HardwareConfig(num_scrs=1, scr_width=16384),
}


def numbered_stream(distinct, extra_edges, spare_vids, rng_seed):
    """``(src, dst, num_vids)``: an endpoint stream over exactly ``distinct`` VIDs."""
    rng = np.random.default_rng(rng_seed)
    num_edges = (distinct + 1) // 2 + extra_edges if distinct else 0
    num_vids = max(distinct + spare_vids, 1)
    vids = rng.choice(num_vids, size=distinct, replace=False)
    # Every distinct VID appears at a random place; the rest repeat them.
    stream = np.zeros(2 * num_edges, dtype=VID_DTYPE)
    if distinct:
        stream[:] = vids[rng.integers(0, distinct, size=2 * num_edges)]
        stream[rng.permutation(2 * num_edges)[:distinct]] = vids
    return stream[1::2], stream[0::2], num_vids


def assert_closed_form_charge(width, src, dst, num_vids):
    """``reindexing_cycles_of`` charges what ``reindexing_cycle_count``
    charges for the occupancies each lookup saw."""
    config = SCAN_WIDTH_CONFIGS[width]
    assert reindexer_scan_width(config) == width
    result = reindex_edges(src, dst, num_vids=num_vids)
    codes = interleave_endpoints(result.edges.src, result.edges.dst)
    expected = reindexing_cycle_count(reindex_mapping_sizes(codes), config)
    assert reindexing_cycles_of(result, config) == expected
    _, occupancy = reindex_edges_reference(src[:300], dst[:300])
    head = reindex_edges(src[:300], dst[:300])
    assert reindexing_cycles_of(head, config) == reindexing_cycle_count(occupancy, config)


#: ``(W, multiples of W)``: few scan boundaries for every width, and ten
#: for the narrow ones.
BOUNDARY_CASES = [(w, t) for w in SCAN_WIDTH_CONFIGS for t in (0, 1, 2)] + [
    (w, 10) for w in (1, 2, 3, 7)
]


class TestClosedFormReindexCharge:
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("width, multiple", BOUNDARY_CASES)
    def test_distinct_count_around_each_multiple_of_the_width(self, width, multiple, offset):
        distinct = max(multiple * width + offset, 0)
        assert_closed_form_charge(width, *numbered_stream(distinct, 7, 5, rng_seed=distinct))

    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 3, 7]),
        multiple=st.integers(0, 16),
        offset=st.sampled_from([-1, 0, 1]),
        extra_edges=st.integers(0, 40),
        spare_vids=st.sampled_from([0, 5, 10**7]),
        rng_seed=st.integers(0, 2**16),
    )
    def test_closed_form_on_random_streams(
        self, width, multiple, offset, extra_edges, spare_vids, rng_seed
    ):
        distinct = max(multiple * width + offset, 0)
        stream = numbered_stream(distinct, extra_edges, spare_vids, rng_seed)
        assert_closed_form_charge(width, *stream)

    def test_charge_is_the_lookup_count_within_one_scan(self):
        result = reindex_edges(np.array([3, 1, 3]), np.array([2, 2, 1]))
        assert reindexing_cycles_of(result, SCAN_WIDTH_CONFIGS[16384]) == 6
        # W = 1: the lookups see 1 (empty), 1, 2, 2, 3 and 3 mappings.
        assert reindexing_cycles_of(result, SCAN_WIDTH_CONFIGS[1]) == 1 + 1 + 2 + 2 + 3 + 3


@st.composite
def dense_value_streams(draw):
    """``(values, num_vids)`` whose VID range the one-table scatter takes."""
    size = draw(st.integers(0, 600))
    num_vids = draw(st.integers(1, 4 * size + 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    hot = draw(st.integers(1, num_vids))
    return rng.integers(num_vids - hot, num_vids, size=size).astype(VID_DTYPE), num_vids


class TestOneTableFactorization:
    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(case=dense_value_streams())
    def test_one_table_equals_the_sort_path(self, case):
        values, num_vids = case
        assert dense_vid_range(num_vids, values.shape[0])
        codes, originals = factorize_first_occurrence(values, num_vids=num_vids)
        want_codes, want_originals = factorize_first_occurrence(values)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(originals, want_originals)
        assert originals.dtype == VID_DTYPE
        assert codes.dtype == want_codes.dtype == np.int64

    @pytest.mark.parametrize("num_vids", [10, 10**9], ids=["scatter", "sort"])
    def test_values_outside_the_range_are_rejected(self, num_vids):
        """A negative VID once aliased the table's last slot: -1 took 9's code."""
        for bad in (-1, num_vids, -(2**40)):
            values = np.array([9, 3, bad, 2], dtype=VID_DTYPE)
            with pytest.raises(ValueError, match=rf"\[0, {num_vids}\)"):
                factorize_first_occurrence(values, num_vids=num_vids)
            with pytest.raises(ValueError, match="num_vids"):
                reindex_edges(values[:2], values[2:], num_vids=num_vids)

    def test_unbounded_values_are_not_range_checked(self):
        codes, originals = factorize_first_occurrence(np.array([9, 3, -1, 9]))
        assert codes.tolist() == [0, 1, 2, 0] and originals.tolist() == [9, 3, -1]


class TestCycleFormulaEquivalence:
    def test_reshaping_vectorized_matches_loop(self, graph, config):
        ordered = edge_order(graph)
        sorted_dst = np.asarray(ordered.dst, dtype=np.int64)
        # Inline re-statement of the original per-segment walk.
        width, slots = config.scr_width, config.num_scrs
        cycles, target = 0, 0
        for seg_index in range(math.ceil(sorted_dst.shape[0] / width)):
            seg = sorted_dst[seg_index * width : (seg_index + 1) * width]
            last_target = min(int(seg[-1]) + 1, graph.num_nodes)
            cycles += math.ceil((last_target - target + 1) / slots)
            target = last_target
        assert reshaping_cycle_count(ordered.dst, graph.num_nodes, config) == cycles

    def test_reindexing_vectorized_matches_loop(self, config):
        sizes = [1, 10, 200, 300, 5000]
        width = reindexer_scan_width(config)
        expected = sum(max(math.ceil(s / width), 1) for s in sizes)
        assert reindexing_cycle_count(sizes, config) == expected
        assert reindexing_cycle_count(np.array(sizes), config) == expected
        assert reindexing_cycle_count([], config) == 0


#: Pipeline-scale graphs of at least 10k edges, as (nodes, edges, batch):
#: one whose sample is dense in its VID range, one so sparse that the
#: frontier dedup and the endpoint factorization take their sort branches.
PIPELINE_GRAPHS = [(2_000, 10_000, 1_000), (100_000, 20_000, 20_000)]


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "num_nodes, num_edges, batch_size", PIPELINE_GRAPHS, ids=["dense", "sparse"]
    )
    def test_pipeline_and_device_cycles_match_the_oracles(
        self, config, num_nodes, num_edges, batch_size
    ):
        """``preprocess`` equals the pipeline with the oracles swapped in, and
        the fast device's selection and reindexing cycles equal the charge of
        the oracle's stats and recorded occupancies.  The device's reindexer
        scans far fewer entries per cycle than the mapping grows to, so an
        occupancy off by one changes the charge."""
        graph = power_law_graph(
            GraphSpec(num_nodes=num_nodes, num_edges=num_edges, degree_skew=0.5, seed=42)
        )
        workload = PreprocessingConfig(k=10, num_layers=2, batch_size=batch_size, seed=0)
        vec = preprocess(graph, workload)
        sample, stats = node_wise_sample_reference(
            vec.csc, choose_batch_nodes(graph, workload), workload.k, workload.num_layers, 0
        )
        combined = sample.all_edges()
        reindex, occupancy = reindex_edges_reference(combined.src, combined.dst)
        assert_samples_equal(vec.sample, sample)
        assert_reindex_equal(vec.reindex, reindex)
        subgraph_csc = coo_to_csc(reindex.edges)
        assert np.array_equal(vec.subgraph_csc.indptr, subgraph_csc.indptr)
        assert np.array_equal(vec.subgraph_csc.indices, subgraph_csc.indices)

        timing = AutoGNNDevice(config).preprocess(graph, workload).timing
        assert timing.selecting_cycles == selection_cycle_count(stats.draws, stats.arrays, config)
        assert timing.reindexing_cycles == reindexing_cycle_count(occupancy, config)
        assert occupancy.max() > 10 * reindexer_scan_width(config)
        # The dense case scatters its endpoints, the sparse one sorts them.
        scatters = dense_vid_range(num_nodes, occupancy.shape[0])
        assert scatters == (num_nodes == PIPELINE_GRAPHS[0][0])


class TestSatelliteFixes:
    def test_all_edges_empty_layers_keeps_num_nodes(self):
        sample = SampledSubgraph(
            batch_nodes=np.empty(0, dtype=VID_DTYPE),
            layers=[],
            sampled_nodes=np.empty(0, dtype=VID_DTYPE),
            num_nodes=37,
        )
        combined = sample.all_edges()
        assert combined.num_edges == 0
        assert combined.num_nodes == 37

    def test_sampler_sets_num_nodes(self, csc):
        sample = node_wise_sample(csc, [0], k=2, num_layers=1, seed=0)
        assert sample.num_nodes == csc.num_nodes

    def test_out_degrees_cached(self, graph):
        first = graph.out_degrees()
        assert graph.out_degrees() is first

    def test_degree_caches_not_inherited(self, graph):
        graph.in_degrees()
        graph.out_degrees()
        derived = graph.with_edges(graph.src[:10], graph.dst[:10])
        assert derived._degree_cache is None
        assert derived._out_degree_cache is None
        appended = graph.add_edges(np.array([0]), np.array([1]))
        assert appended._degree_cache is None
        assert appended._out_degree_cache is None
        assert int(appended.out_degrees()[0]) == int(graph.out_degrees()[0]) + 1

    def test_ordered_layout_not_inherited(self, graph):
        """Only ``DynamicGraph.apply`` seeds an ordered layout: graphs derived
        from a snapshot carry none, and ordering a static graph caches none."""
        dynamic = DynamicGraph(graph=graph)
        for step in range(2):
            snapshot = dynamic.apply(
                UpdateBatch(step=step, src=np.array([0, 3]), dst=np.array([5, 5]))
            )
        assert snapshot._ordered is not None
        assert edge_order(snapshot) is snapshot._ordered
        derived = [
            snapshot.copy(),
            snapshot.with_edges(snapshot.src[:10], snapshot.dst[:10]),
            snapshot.add_edges(np.array([0]), np.array([1])),
            snapshot.subgraph_edges(snapshot.dst % 2 == 0),
        ]
        assert all(g._ordered is None for g in derived)

        static = derived[0]
        first, second = edge_order(static), edge_order(static)
        assert first is not second
        assert static._ordered is None and static._degree_cache is None
        assert first._ordered is None and first._degree_cache is None
        assert np.array_equal(first.src, snapshot._ordered.src)
        assert np.array_equal(first.dst, snapshot._ordered.dst)
        # The base graph was never ordered, so it carries no layout either.
        assert graph._ordered is None


# --------------------------------------------------------------- property test
#: A reindexer that scans 4 mappings per cycle and UPEs 4 wide, so the tiny
#: generated subgraphs cross many scan boundaries.
NARROW_HARDWARE = HardwareConfig(num_upes=2, upe_width=4, num_scrs=1, scr_width=4)

#: Vertices added to a "sparse" case's graph: far more than its endpoints, so
#: the frontier dedup and the endpoint factorization take their sort branch.
SPARSE_EXTRA_NODES = 1_000_000

#: Wall-clock budget of the property sweep: past it, the remaining generated
#: examples return at once, so a slow host cannot stretch the sweep.  The
#: pinned examples always run first.
ORACLE_BUDGET_SECONDS = 20.0


@pytest.fixture(scope="module")
def oracle_deadline():
    """The monotonic time at which the property sweep's budget runs out."""
    return time.monotonic() + ORACLE_BUDGET_SECONDS


@st.composite
def oracle_cases(draw):
    """``(kind, num_nodes, src, dst, batch, k, num_layers, seed)``.

    Endpoints come from the lower half of the VIDs, so the upper half is
    isolated; a batch may repeat a node or pick an isolated one.
    """
    kind = draw(st.sampled_from(["plain", "sparse", "snapshot"]))
    num_nodes = draw(st.integers(min_value=1, max_value=40))
    hot = max(num_nodes // 2, 1)
    num_edges = draw(st.integers(min_value=0, max_value=150))
    endpoint = st.integers(min_value=0, max_value=hot - 1)
    src = draw(st.lists(endpoint, min_size=num_edges, max_size=num_edges))
    dst = draw(st.lists(endpoint, min_size=num_edges, max_size=num_edges))
    batch = draw(st.lists(st.integers(min_value=0, max_value=num_nodes - 1), max_size=8))
    k = draw(st.sampled_from([1, 2, 3, 5, 1000]))
    num_layers = draw(st.integers(min_value=1, max_value=3))
    return kind, num_nodes, src, dst, batch, k, num_layers, draw(st.integers(0, 2**16))


def _case_csc(kind, num_nodes, src, dst):
    """The CSC a case samples from; a snapshot's comes from its carried layout."""
    if kind == "sparse":
        num_nodes += SPARSE_EXTRA_NODES
    src = np.array(src, dtype=VID_DTYPE)
    dst = np.array(dst, dtype=VID_DTYPE)
    if kind != "snapshot":
        return coo_to_csc(COOGraph(src=src, dst=dst, num_nodes=num_nodes))
    # A base graph and two update batches: the second apply merges into the
    # layout the first one seeded.
    cuts = [0, len(src) // 3, 2 * len(src) // 3, len(src)]
    base = COOGraph(src=src[: cuts[1]], dst=dst[: cuts[1]], num_nodes=num_nodes)
    dynamic = DynamicGraph(graph=base)
    for step in (1, 2):
        part = slice(cuts[step], cuts[step + 1])
        snapshot = dynamic.apply(UpdateBatch(step=step, src=src[part], dst=dst[part]))
    assert snapshot._ordered is not None
    return csc_from_ordered(edge_order(snapshot))


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(case=oracle_cases())
# An empty batch; k at the maximum in-degree (node 1 has four neighbours);
# isolated vertices (7 and 8) in a batch with a repeat; a graph with far more
# vertices than endpoints; an update-stream snapshot.
@example(case=("plain", 6, [0, 1, 2, 1], [1, 2, 0, 0], [], 2, 2, 0))
@example(case=("plain", 8, [0, 1, 2, 3, 0, 2], [1, 1, 1, 1, 3, 3], [1, 3], 4, 2, 5))
@example(case=("plain", 10, [0, 1, 1, 2], [1, 0, 2, 1], [7, 8, 8, 1], 1, 3, 2))
@example(case=("sparse", 12, [0, 1, 2, 3, 4, 5, 0], [5, 4, 3, 2, 1, 0, 1], [0, 1, 5], 2, 3, 9))
@example(
    case=("snapshot", 9, [0, 1, 2, 3, 0, 2, 3, 1, 4], [1, 2, 3, 0, 2, 1, 1, 3, 0], [0, 2], 2, 2, 1)
)
def test_fast_path_matches_oracles(oracle_deadline, case):
    """Sample, ``SelectionStats``, reindex result and per-lookup occupancy of
    the fast path equal the oracles', and the kernels charge what the oracles
    counted."""
    if time.monotonic() > oracle_deadline:
        return
    kind, num_nodes, src, dst, batch, k, num_layers, draw_seed = case
    csc = _case_csc(kind, num_nodes, src, dst)
    fast, fast_stats = node_wise_sample_with_stats(csc, batch, k, num_layers, seed=draw_seed)
    ref, ref_stats = node_wise_sample_reference(csc, batch, k, num_layers, draw_seed)
    assert_samples_equal(fast, ref)
    assert fast_stats == ref_stats

    combined = ref.all_edges()
    want, occupancy = reindex_edges_reference(combined.src, combined.dst)
    got = reindex_subgraph(fast)
    assert_reindex_equal(got, want)
    codes = interleave_endpoints(got.edges.src, got.edges.dst)
    assert np.array_equal(reindex_mapping_sizes(codes), occupancy)

    _, selecting = UPEKernel(NARROW_HARDWARE).unique_random_selection(
        csc, batch, k, num_layers, seed=draw_seed
    )
    assert selecting == selection_cycle_count(ref_stats.draws, ref_stats.arrays, NARROW_HARDWARE)
    _, reindexing = SCRKernel(NARROW_HARDWARE).subgraph_reindexing(fast)
    assert reindexing == reindexing_cycle_count(occupancy, NARROW_HARDWARE)
