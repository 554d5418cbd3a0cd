import numpy as np
import pytest

from metrictrees import MetricTree, gallery, ingest


@pytest.fixture
def simple_doc():
    """Trunk A--B of length 2 with unit branches B--C and B--D."""
    return gallery("simple")


@pytest.fixture
def star_doc():
    def make(n, spoke_len=1.0):
        return gallery("star", n=n, spoke_len=spoke_len)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def star_tips(doc):
    n = doc.tree.n_nodes - 1
    return [doc.points[f"tip{i}"] for i in range(1, n + 1)]


def shaped_edges(rng, shape, n):
    """Edges of a random tree, path, caterpillar or star on n nodes under
    shuffled ids, each edge in random orientation."""
    spine = max(1, n // 2)
    parent = [
        i - 1 if shape == "path" or (shape == "caterpillar" and i < spine)
        else 0 if shape == "star"
        else int(rng.integers(0, spine if shape == "caterpillar" else i))
        for i in range(1, n)
    ]
    perm = rng.permutation(n)
    edges = []
    for i, p in enumerate(parent, start=1):
        u, v = int(perm[p]), int(perm[i])
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, float(rng.uniform(0.2, 2.5))))
    return edges


def shaped_tree(rng, shape, n):
    return MetricTree(n, shaped_edges(rng, shape, n))


def sub_tolerance_trees(rng, count=6):
    """Trees with edges of 1e-10 and 5e-10, shorter than the default
    ``abs_eps``: paths whose short edge has its child at its head and at its
    tail, then ``count`` random, caterpillar and path shapes with a third of
    their edges short, each in random orientation."""
    trees = []
    for short in (1e-10, 5e-10):
        for first in ((0, 1, short), (1, 0, short)):
            trees.append(MetricTree(4, [first, (1, 2, 1.0), (3, 2, short)]))
    for k in range(count):
        n = int(rng.integers(2, 40))
        edges = shaped_edges(rng, ("random", "caterpillar", "path")[k % 3], n)
        for j in rng.integers(0, n - 1, max(1, n // 3)).tolist():
            u, v, _ = edges[j]
            edges[j] = (u, v, float(rng.choice([1e-10, 5e-10])))
        trees.append(MetricTree(n, edges))
    return trees


def line_reader_only(monkeypatch):
    """Send every tree document to the line reader over the whole document,
    as when the bulk pass cannot convert its edge block."""
    monkeypatch.setattr(ingest, "_read_bulk", lambda text: None)
