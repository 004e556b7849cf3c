"""Synthetic graph generators.

The paper evaluates on 11 real datasets (Table II).  Those datasets are not
redistributable inside this repository, so we generate synthetic graphs whose
node count, edge count and degree skew match the originals proportionally.
Preprocessing cost depends only on those aggregate characteristics, so the
substitution preserves the trends the evaluation reports (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE


@dataclass(frozen=True)
class GraphSpec:
    """A target shape for a synthetic graph.

    Attributes:
        num_nodes: number of vertices.
        num_edges: number of edges.
        degree_skew: power-law exponent-like knob; 0 gives uniform destination
            choice, larger values concentrate edges on a few hub destinations
            (high-degree graphs such as MV/TB in the paper).
        name: dataset key.
        seed: RNG seed for reproducibility.
    """

    num_nodes: int
    num_edges: int
    degree_skew: float = 0.0
    name: str = ""
    seed: int = 0


def _zipf_probabilities(num_nodes: int, skew: float) -> np.ndarray:
    """Zipf-like probability vector over VIDs; ``skew==0`` means uniform."""
    if num_nodes <= 0:
        return np.empty(0)
    if skew <= 0:
        return np.full(num_nodes, 1.0 / num_nodes)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def power_law_graph(spec: GraphSpec) -> COOGraph:
    """Generate a graph whose in-degree distribution follows a Zipf-like law.

    Destinations are drawn from a Zipf-like distribution (hubs attract most
    edges), sources uniformly.  This mimics the heavy-tailed degree profile of
    the interaction/e-commerce graphs in Table II (MV, FR, TB) while a skew of
    zero reproduces the flatter citation graphs (PH, AX, CL).
    """
    rng = np.random.default_rng(spec.seed)
    if spec.num_nodes == 0 or spec.num_edges == 0:
        return COOGraph(
            src=np.empty(0, dtype=VID_DTYPE),
            dst=np.empty(0, dtype=VID_DTYPE),
            num_nodes=spec.num_nodes,
            name=spec.name,
        )
    probs = _zipf_probabilities(spec.num_nodes, spec.degree_skew)
    dst = rng.choice(spec.num_nodes, size=spec.num_edges, p=probs)
    src = rng.integers(0, spec.num_nodes, size=spec.num_edges)
    # Permute destination identities so hubs are not simply the lowest VIDs;
    # radix sort behaviour should not get an artificial advantage.
    perm = rng.permutation(spec.num_nodes)
    dst = perm[dst]
    return COOGraph(
        src=src.astype(VID_DTYPE),
        dst=dst.astype(VID_DTYPE),
        num_nodes=spec.num_nodes,
        name=spec.name,
    )


def uniform_random_graph(
    num_nodes: int, num_edges: int, seed: int = 0, name: str = ""
) -> COOGraph:
    """Generate an Erdos-Renyi-style graph with uniformly random endpoints."""
    return power_law_graph(
        GraphSpec(num_nodes=num_nodes, num_edges=num_edges, degree_skew=0.0, name=name, seed=seed)
    )


def skew_for_average_degree(avg_degree: float) -> float:
    """Heuristic mapping from a dataset's average degree to a Zipf skew.

    Low-degree citation graphs get nearly uniform destinations; very dense
    interaction graphs (degree in the hundreds or thousands) get a strong
    skew so a handful of hub nodes dominate, reproducing the node-explosion
    behaviour the paper describes for MV and TB.
    """
    if avg_degree < 20:
        return 0.0
    if avg_degree < 120:
        return 0.6
    if avg_degree < 700:
        return 0.9
    return 1.1


def grow_graph(
    graph: COOGraph,
    new_edges: int,
    rng: Optional[np.random.Generator] = None,
    preferential: bool = True,
) -> COOGraph:
    """Append ``new_edges`` edges, optionally with preferential attachment.

    Used by the dynamic-graph experiments (Figs. 7, 29, 30): social and
    e-commerce graphs keep growing, and new edges tend to attach to already
    popular destinations.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if new_edges <= 0:
        return graph.copy()
    src, dst = attachment_edges(graph.dst, graph.num_nodes, new_edges, rng, preferential)
    return graph.add_edges(src, dst)


def attachment_edges(
    dst: np.ndarray,
    num_nodes: int,
    new_edges: int,
    rng: np.random.Generator,
    preferential: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``new_edges`` ``(src, dst)`` edges for a graph with destinations ``dst``.

    With ``preferential`` attachment each new destination copies an existing
    edge's, so popular destinations attract more; otherwise (or on a graph
    with no edges) destinations are uniform.  Sources are always uniform.
    """
    if preferential and dst.shape[0] > 0:
        picked = rng.integers(0, dst.shape[0], size=new_edges)
        new_dst = dst[picked]
    else:
        new_dst = rng.integers(0, max(num_nodes, 1), size=new_edges)
    src = rng.integers(0, max(num_nodes, 1), size=new_edges)
    return src.astype(VID_DTYPE), new_dst.astype(VID_DTYPE)
