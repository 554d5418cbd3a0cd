"""Random trees and point samples for randomized verification runs."""

from __future__ import annotations

import numpy as np

from .core import MetricTree, PointArray, TreePoint, _count

__all__ = ["random_tree", "random_point", "random_points", "edge_samples"]


def random_tree(
    rng: np.random.Generator, n_nodes: int | None = None, max_nodes: int = 12
) -> MetricTree:
    """Uniform random attachment tree on ``n_nodes`` nodes, else on 1 to
    ``max_nodes`` drawn uniformly, with lengths uniform in [0.2, 2.5]."""
    if n_nodes is None:
        n_nodes = rng.integers(1, _count(max_nodes, "max_nodes") + 1)
    n_nodes = _count(n_nodes, "n_nodes")
    edges = [
        (int(rng.integers(0, i)), i, float(rng.uniform(0.2, 2.5)))
        for i in range(1, n_nodes)
    ]
    return MetricTree(n_nodes, edges)


def random_point(rng: np.random.Generator, tree: MetricTree) -> TreePoint:
    """Random location: a node with probability 1/4, else uniform on an edge."""
    if tree.n_nodes == 1 or rng.random() < 0.25:
        return tree.node_point(int(rng.integers(0, tree.n_nodes)))
    e = int(rng.integers(0, tree.n_nodes - 1))
    u, v = tree.edge_nodes(e)
    return tree.edge_point(u, v, float(rng.uniform(0.0, tree.edge_length(e))))


def random_points(rng: np.random.Generator, tree: MetricTree, k: int) -> list[TreePoint]:
    return [random_point(rng, tree) for _ in range(_count(k, "k", least=0))]


def edge_samples(tree: MetricTree, per_edge: int = 3) -> PointArray:
    """Deterministic dense sample: every node plus interior edge points.

    The nodes in order, then for each edge its ``per_edge`` evenly spaced
    points from the tail, canonicalized as ``MetricTree.edge_point`` does.
    ``per_edge`` is an integer of at least 0; BadParams otherwise.
    """
    per_edge = _count(per_edge, "per_edge", least=0)
    lengths = tree._edge_len
    j = np.arange(1, per_edge + 1)
    coord = (lengths[:, None] * j / (per_edge + 1)).ravel()
    inner = tree._edge_points_at(np.repeat(np.arange(len(lengths)), len(j)), coord)
    return PointArray(
        tree,
        np.concatenate((np.arange(tree.n_nodes), inner.node)),
        np.concatenate((np.full(tree.n_nodes, -1), inner.edge)),
        np.concatenate((np.zeros(tree.n_nodes), inner.offset)),
    )
