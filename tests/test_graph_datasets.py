"""Tests for the Table II dataset registry and generators."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.graph.datasets import (
    DATASETS,
    DATASET_ORDER,
    dataset_table,
    datasets_by_category,
    load_dataset,
    size_class,
)
from repro.graph.generators import (
    GraphSpec,
    grow_graph,
    power_law_graph,
    skew_for_average_degree,
    uniform_random_graph,
)


class TestRegistry:
    def test_eleven_datasets(self):
        assert len(DATASETS) == 11
        assert len(DATASET_ORDER) == 11

    def test_order_matches_registry(self):
        assert set(DATASET_ORDER) == set(DATASETS)

    def test_table_rows(self):
        rows = dataset_table()
        assert len(rows) == 11
        assert rows[0]["key"] == "PH"
        assert rows[-1]["key"] == "TB"

    def test_table2_characteristics(self):
        assert DATASETS["TB"].num_edges == 400_000_000
        assert DATASETS["MV"].avg_degree == pytest.approx(3052.0)
        assert DATASETS["AX"].num_nodes == 169_000

    def test_categories(self):
        assert len(datasets_by_category("citation")) == 3
        assert len(datasets_by_category("e-commerce")) == 2
        assert datasets_by_category("unknown") == []

    def test_size_classes(self):
        assert size_class(DATASETS["PH"]) == "small"
        assert size_class(DATASETS["YL"]) == "medium"
        assert size_class(DATASETS["AM"]) == "large"

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            load_dataset("XX")


class TestLoading:
    def test_scaled_graph_matches_degree(self):
        info = DATASETS["AX"]
        g = load_dataset("AX", scale=1 / 500)
        assert g.num_edges == int(info.num_edges / 500)
        # Average degree should be within a factor of ~2 of the original.
        assert g.avg_degree == pytest.approx(info.avg_degree, rel=0.6)

    def test_deterministic_by_seed(self):
        a = load_dataset("PH", scale=1 / 2000, seed=3)
        b = load_dataset("PH", scale=1 / 2000, seed=3)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_default_seed_is_stable_across_processes(self):
        """The default seed must not depend on the interpreter's str-hash salt."""
        script = (
            "import hashlib; from repro.graph.datasets import load_dataset; "
            "g = load_dataset('SO', scale=1 / 20000); "
            "print(hashlib.sha256(g.src.tobytes() + g.dst.tobytes()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            digests.add(
                subprocess.run(
                    [sys.executable, "-c", script], env=env, check=True,
                    capture_output=True, text=True, timeout=120,
                ).stdout
            )
        assert len(digests) == 1

    def test_minimum_sizes_enforced(self):
        g = load_dataset("PH", scale=1e-9)
        assert g.num_edges >= 256
        assert g.num_nodes >= 64


class TestGenerators:
    def test_uniform_graph_shape(self):
        g = uniform_random_graph(100, 500, seed=1)
        assert g.num_nodes == 100
        assert g.num_edges == 500

    def test_skewed_graph_has_hubs(self):
        flat = power_law_graph(GraphSpec(num_nodes=200, num_edges=4000, degree_skew=0.0, seed=2))
        skewed = power_law_graph(GraphSpec(num_nodes=200, num_edges=4000, degree_skew=1.2, seed=2))
        assert skewed.max_degree() > flat.max_degree()

    def test_empty_spec(self):
        g = power_law_graph(GraphSpec(num_nodes=0, num_edges=0))
        assert g.num_edges == 0

    def test_skew_heuristic_monotone(self):
        assert skew_for_average_degree(5) <= skew_for_average_degree(100)
        assert skew_for_average_degree(100) <= skew_for_average_degree(2000)

    def test_grow_graph_adds_edges(self):
        g = uniform_random_graph(50, 200, seed=3)
        grown = grow_graph(g, 50)
        assert grown.num_edges == 250
        assert g.num_edges == 200

    def test_grow_graph_preferential_targets_existing_dst(self):
        g = uniform_random_graph(50, 200, seed=4)
        rng = np.random.default_rng(0)
        grown = grow_graph(g, 100, rng=rng, preferential=True)
        new_dst = set(grown.dst[200:].tolist())
        assert new_dst.issubset(set(g.dst.tolist()))
