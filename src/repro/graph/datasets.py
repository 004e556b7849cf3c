"""Dataset registry reproducing Table II of the paper.

Each entry records the real dataset's node count, edge count, average degree
and network category; :func:`load_dataset` generates a synthetic stand-in at a
configurable scale (default 1/1000 of the original edge count) whose shape
matches those characteristics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.coo import COOGraph
from repro.graph.generators import GraphSpec, power_law_graph, skew_for_average_degree

#: Default down-scaling factor applied to the paper's edge counts so that the
#: full benchmark suite runs on a laptop.  1/1000 keeps the relative ordering
#: of dataset sizes and degrees intact.
DEFAULT_SCALE = 1.0 / 1000.0

#: Minimum synthetic graph size so tiny scales still exercise every code path.
_MIN_NODES = 64
_MIN_EDGES = 256


@dataclass(frozen=True)
class DatasetInfo:
    """Characteristics of one dataset from Table II.

    Attributes:
        key: two-letter abbreviation used throughout the paper's figures.
        full_name: dataset name as published.
        category: network category (citation / interaction / social / e-commerce).
        num_edges: edge count of the real dataset.
        num_nodes: node count of the real dataset.
        avg_degree: average degree of the real dataset.
    """

    key: str
    full_name: str
    category: str
    num_edges: int
    num_nodes: int
    avg_degree: float

    def spec(self, scale: float = DEFAULT_SCALE, seed: Optional[int] = None) -> GraphSpec:
        """Return a synthetic :class:`GraphSpec` matching this dataset at ``scale``."""
        edges = max(int(self.num_edges * scale), _MIN_EDGES)
        nodes = max(int(self.num_nodes * scale), _MIN_NODES)
        # Preserve the dataset's average degree: degree = edges / nodes.
        nodes = max(min(nodes, edges), _MIN_NODES)
        target_nodes = max(int(round(edges / self.avg_degree)), _MIN_NODES)
        nodes = max(target_nodes, _MIN_NODES)
        if seed is None:
            # A digest of the key, stable across processes (``hash`` of a
            # str is salted per interpreter, so every run drew a new graph).
            seed = zlib.crc32(self.key.encode("utf-8")) % (2**31)
        return GraphSpec(
            num_nodes=nodes,
            num_edges=edges,
            degree_skew=skew_for_average_degree(self.avg_degree),
            name=self.key,
            seed=seed,
        )


def _info(key, full_name, category, num_edges, num_nodes, avg_degree) -> DatasetInfo:
    return DatasetInfo(
        key=key,
        full_name=full_name,
        category=category,
        num_edges=num_edges,
        num_nodes=num_nodes,
        avg_degree=avg_degree,
    )


#: Table II of the paper, keyed by the two-letter abbreviation.
DATASETS: Dict[str, DatasetInfo] = {
    "PH": _info("PH", "Physics", "citation", 495_000, 34_500, 14.4),
    "AX": _info("AX", "ogbn-arxiv", "citation", 1_160_000, 169_000, 6.84),
    "CL": _info("CL", "ogbl-collab", "citation", 2_360_000, 236_000, 10.0),
    "YL": _info("YL", "Yelp", "interaction", 6_810_000, 46_000, 148.0),
    "FR": _info("FR", "Fraud", "interaction", 7_130_000, 11_900, 597.0),
    "MV": _info("MV", "Movie", "interaction", 11_300_000, 3_710, 3052.0),
    "RD": _info("RD", "Reddit2", "social", 23_200_000, 233_000, 99.6),
    "SO": _info("SO", "StackOverflow", "social", 63_500_000, 6_020_000, 10.5),
    "JR": _info("JR", "LiveJournal", "social", 69_000_000, 4_850_000, 14.2),
    "AM": _info("AM", "ogbn-products (Amazon)", "e-commerce", 123_000_000, 2_450_000, 50.5),
    "TB": _info("TB", "Taobao", "e-commerce", 400_000_000, 230_000, 1744.0),
}

#: Presentation order used by the paper's figures (per-domain, ascending edges).
DATASET_ORDER: List[str] = ["PH", "AX", "CL", "YL", "FR", "MV", "RD", "SO", "JR", "AM", "TB"]

#: Small/medium/large grouping used in the motivation analysis (Section III-A).
SMALL_EDGE_THRESHOLD = 500_000
LARGE_EDGE_THRESHOLD = 10_000_000


def load_dataset(
    key: str, scale: float = DEFAULT_SCALE, seed: Optional[int] = None
) -> COOGraph:
    """Generate the synthetic stand-in for dataset ``key`` at ``scale``.

    Raises ``KeyError`` for unknown dataset keys.
    """
    info = DATASETS[key]
    return power_law_graph(info.spec(scale=scale, seed=seed))


def dataset_table() -> List[Dict[str, object]]:
    """Return Table II as a list of row dictionaries (used by the bench harness)."""
    rows = []
    for key in DATASET_ORDER:
        info = DATASETS[key]
        rows.append(
            {
                "key": info.key,
                "name": info.full_name,
                "category": info.category,
                "num_edges": info.num_edges,
                "num_nodes": info.num_nodes,
                "avg_degree": info.avg_degree,
            }
        )
    return rows


def datasets_by_category(category: str) -> List[DatasetInfo]:
    """Return all datasets belonging to ``category`` in presentation order."""
    return [DATASETS[k] for k in DATASET_ORDER if DATASETS[k].category == category]


def size_class(info: DatasetInfo) -> str:
    """Classify a dataset as small / medium / large by its real edge count."""
    if info.num_edges < SMALL_EDGE_THRESHOLD:
        return "small"
    if info.num_edges < LARGE_EDGE_THRESHOLD:
        return "medium"
    return "large"
