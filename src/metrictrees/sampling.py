"""Random trees and point samples for randomized verification runs."""

from __future__ import annotations

import numpy as np

from .core import MetricTree, PointArray, Tolerance, TreePoint

__all__ = ["random_tree", "random_point", "random_points", "edge_samples"]


def random_tree(
    rng: np.random.Generator,
    n_nodes: int | None = None,
    max_nodes: int = 12,
    length_range: tuple[float, float] = (0.2, 2.5),
    tol: Tolerance | None = None,
) -> MetricTree:
    """Uniform random attachment tree with lengths drawn from length_range."""
    if n_nodes is None:
        n_nodes = int(rng.integers(1, max_nodes + 1))
    lo, hi = length_range
    edges = [
        (int(rng.integers(0, i)), i, float(rng.uniform(lo, hi)))
        for i in range(1, n_nodes)
    ]
    return MetricTree(n_nodes, edges, tol=tol)


def random_point(rng: np.random.Generator, tree: MetricTree) -> TreePoint:
    """Random location: a node with probability 1/4, else uniform on an edge."""
    if not tree.edges or rng.random() < 0.25:
        return tree.node_point(int(rng.integers(0, tree.n_nodes)))
    e = int(rng.integers(0, len(tree.edges)))
    u, v = tree.edge_nodes(e)
    return tree.edge_point(u, v, float(rng.uniform(0.0, tree.edge_length(e))))


def random_points(rng: np.random.Generator, tree: MetricTree, k: int) -> list[TreePoint]:
    return [random_point(rng, tree) for _ in range(k)]


def edge_samples(tree: MetricTree, per_edge: int = 3) -> PointArray:
    """Deterministic dense sample: every node plus interior edge points.

    The nodes in order, then for each edge its ``per_edge`` evenly spaced
    points from the tail, canonicalized as ``MetricTree.edge_point`` does.
    """
    k = tree._kernel()
    j = np.arange(1, per_edge + 1)
    coord = (k.lengths[:, None] * j / (per_edge + 1)).ravel()
    edge = np.repeat(np.arange(len(k.lengths)), len(j))
    length = k.lengths[edge]
    eps = tree.tol.abs_eps
    node = np.where(coord >= length - eps, k.edge_v[edge], -1)
    node = np.where(coord <= eps, k.edge_u[edge], node)
    inside = node < 0
    return PointArray(
        tree,
        np.concatenate((np.arange(tree.n_nodes), node)),
        np.concatenate((np.full(tree.n_nodes, -1), np.where(inside, edge, -1))),
        np.concatenate((np.zeros(tree.n_nodes), np.where(inside, coord, 0.0))),
    )
