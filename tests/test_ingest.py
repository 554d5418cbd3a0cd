"""Tests for matrix ingestion, recognition, reconstruction, documents, and
the gallery."""

import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_reader_only, shaped_tree

from metrictrees import (
    BadParams,
    CycleDetected,
    Disconnected,
    DistanceMatrix,
    DuplicateEdge,
    InvalidDistanceMatrix,
    MetricTree,
    MetricTreeError,
    NonpositiveEdgeLength,
    NotAMetric,
    NotTreeMetric,
    ParameterOutOfRange,
    Tolerance,
    TreeDocument,
    TreeParseError,
    UnknownGallery,
    check_four_point,
    format_matrix_csv,
    gallery,
    matrix_from_points,
    parse_matrix,
    parse_tree,
    random_points,
    random_tree,
    serialize_tree,
    tree_from_distances,
)
from metrictrees import _build, ingest


def _matrix(labels, rows):
    return DistanceMatrix(tuple(labels), np.array(rows, dtype=float))


class TestDistanceMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidDistanceMatrix):
            _matrix("ab", [[0.0, 1.0], [2.0, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidDistanceMatrix):
            _matrix("ab", [[0.5, 1.0], [1.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(InvalidDistanceMatrix):
            _matrix("ab", [[0.0, -1.0], [-1.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidDistanceMatrix):
            _matrix("abc", [[0.0, 1.0], [1.0, 0.0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidDistanceMatrix, match="^labels must be unique$"):
            _matrix("aba", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_near_overflow_rejected(self):
        # the unit square x 1e308 once passed the four-point check (inf - inf
        # is NaN, never > slack) and rebuilt onto one node; two labels at
        # 1.7e308 rebuilt as a tree without edges
        s = math.sqrt(2.0) * 1e308
        square = [[0, 1e308, s, 1e308], [1e308, 0, 1e308, s],
                  [s, 1e308, 0, 1e308], [1e308, s, 1e308, 0]]
        with pytest.raises(InvalidDistanceMatrix, match=r"entry at \(0, 1\) exceeds"):
            _matrix("abcd", square)
        with pytest.raises(InvalidDistanceMatrix, match=r"entry at \(0, 1\) exceeds"):
            _matrix("ab", [[0, 1.7e308], [1.7e308, 0]])

    def test_largest_entry_accepted(self):
        big = float(np.finfo(float).max) / 4.0
        m = _matrix("abc", [[0, big, big], [big, 0, big], [big, big, 0]])
        assert m.entry(0, 1) == big
        assert check_four_point(m) == (True, None)
        tree, pts = tree_from_distances(m)
        assert tree.distance(pts["a"], pts["b"]) == big


class TestFourPoint:
    def test_three_by_three_vacuous(self):
        m = _matrix("abc", [[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        ok, quad = check_four_point(m)
        assert ok and quad is None

    def test_star_distances_pass(self):
        rows = [[0.0 if i == j else 2.0 for j in range(4)] for i in range(4)]
        ok, _ = check_four_point(_matrix("abcd", rows))
        assert ok

    def test_unit_square_fails(self):
        s = math.sqrt(2.0)
        rows = [
            [0, 1, s, 1],
            [1, 0, 1, s],
            [s, 1, 0, 1],
            [1, s, 1, 0],
        ]
        ok, quad = check_four_point(_matrix("abcd", rows))
        assert not ok
        assert quad == (0, 1, 2, 3)

    def test_triangle_violation_is_not_a_metric(self):
        rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(NotAMetric) as exc:
            check_four_point(_matrix("abc", rows))
        assert exc.value.triple is not None

    def test_verdicts_when_reconstruction_raises(self, monkeypatch):
        # the triangle and four-point scans stand in for the certificates,
        # and tree_from_distances raises what the reconstruction raised
        def fail(matrix):
            raise BadParams("reconstruction failed")

        monkeypatch.setattr(ingest, "_reconstruct", fail)
        s = math.sqrt(2.0)
        not_metric = _matrix("abcd", [[0, 1, 5, 1], [1, 0, 1, 1], [5, 1, 0, 1], [1, 1, 1, 0]])
        square = _matrix("abcd", [[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]])
        star = _matrix("abcd", [[0.0 if i == j else 2.0 for j in range(4)] for i in range(4)])
        for run in (check_four_point, tree_from_distances):
            with pytest.raises(NotAMetric) as exc:
                run(not_metric)
            assert exc.value.triple == _reference_metric_violation(not_metric)
        assert check_four_point(square) == _reference_check_four_point(square)
        assert check_four_point(square) == (False, (0, 1, 2, 3))
        with pytest.raises(NotTreeMetric) as exc:
            tree_from_distances(square)
        assert exc.value.quadruple == (0, 1, 2, 3)
        assert check_four_point(star) == (True, None)
        with pytest.raises(BadParams, match="^reconstruction failed$"):
            tree_from_distances(star)


class TestReconstruction:
    def test_no_labels(self):
        # an empty matrix is a tree metric, realized by one node with no points
        m = DistanceMatrix((), np.zeros((0, 0)))
        assert check_four_point(m) == (True, None)
        tree, pts = tree_from_distances(m)
        assert (tree.n_nodes, tree.edges, pts) == (1, (), {})

    def test_two_labels_single_edge(self):
        tree, pts = tree_from_distances(_matrix("ab", [[0, 5], [5, 0]]))
        assert tree.n_nodes == 2
        assert tree.distance(pts["a"], pts["b"]) == pytest.approx(5.0)

    def test_three_labels_star(self):
        m = _matrix("abc", [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        tree, pts = tree_from_distances(m)
        for i, x in enumerate("abc"):
            for j, y in enumerate("abc"):
                assert tree.distance(pts[x], pts[y]) == pytest.approx(m.values[i, j])
        # spoke lengths follow the three-point split: a sits 1 from the hub
        hub = tree.median(pts["a"], pts["b"], pts["c"])
        assert tree.distance(pts["a"], hub) == pytest.approx(1.0)

    def test_simple_fixture_leaves_roundtrip(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        m = matrix_from_points(t, {k: p[k] for k in "ACD"})
        tree, pts = tree_from_distances(m)
        m2 = matrix_from_points(tree, [pts[k] for k in m.labels])
        assert np.abs(m2.values - m.values).max() < 1e-9

    def test_label_on_interior_point(self):
        # a path a--b--c with b exactly between: b must land on the path
        m = _matrix("abc", [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        tree, pts = tree_from_distances(m)
        assert tree.is_between(pts["a"], pts["b"], pts["c"])

    def test_duplicate_labels_share_a_point(self):
        m = _matrix("abc", [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
        tree, pts = tree_from_distances(m)
        assert pts["a"] == pts["b"]
        assert tree.distance(pts["a"], pts["c"]) == pytest.approx(2.0)

    def test_non_tree_metric_rejected(self):
        s = math.sqrt(2.0)
        rows = [
            [0, 1, s, 1],
            [1, 0, 1, s],
            [s, 1, 0, 1],
            [1, s, 1, 0],
        ]
        with pytest.raises(NotTreeMetric):
            tree_from_distances(_matrix("abcd", rows))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_nodes=12)
        k = int(rng.integers(2, 8))
        pts = random_points(rng, tree, k)
        m = matrix_from_points(tree, pts)
        ok, _ = check_four_point(m)
        assert ok
        rebuilt, named = tree_from_distances(m)
        m2 = matrix_from_points(rebuilt, [named[l] for l in m.labels])
        assert np.abs(m2.values - m.values).max() < 1e-9


class _ReferenceBuilder:
    """The dict-of-dicts builder reconstruction used before, searched by BFS
    once per label; kept as the reference for the parent-pointer one."""

    def __init__(self):
        self.adj = {0: {}}

    def add_node(self):
        node = len(self.adj)
        self.adj[node] = {}
        return node

    def add_edge(self, u, v, length):
        self.adj[u][v] = length
        self.adj[v][u] = length

    def path(self, u, v):
        parent = {u: -1}
        queue = deque([u])
        while queue:
            a = queue.popleft()
            if a == v:
                break
            for b in self.adj[a]:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        nodes = [v]
        while nodes[-1] != u:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        cum = [0.0]
        for a, b in zip(nodes, nodes[1:]):
            cum.append(cum[-1] + self.adj[a][b])
        return nodes, cum

    def locate(self, u, v, t, snap):
        nodes, cum = self.path(u, v)
        for k, c in enumerate(cum):
            if abs(c - t) <= snap:
                return nodes[k]
        for k in range(len(nodes) - 1):
            if cum[k] < t < cum[k + 1]:
                a, b = nodes[k], nodes[k + 1]
                length = self.adj[a][b]
                del self.adj[a][b]
                del self.adj[b][a]
                m = self.add_node()
                self.add_edge(a, m, t - cum[k])
                self.add_edge(m, b, length - (t - cum[k]))
                return m
        return v

    def edges(self):
        return [(u, v, x) for u, nbrs in self.adj.items() for v, x in nbrs.items() if u < v]


def _reference_metric_violation(matrix):
    """The triple loop ``DistanceMatrix.metric_violation`` replaced."""
    d = matrix.values
    n = matrix.size
    slack = matrix.tol.slack(float(d.max(initial=0.0)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, k] > d[i, j] + d[j, k] + slack:
                    return (i, j, k)
    return None


def _reference_check_four_point(matrix):
    """The quartic loop ``check_four_point`` replaced."""
    triple = _reference_metric_violation(matrix)
    if triple is not None:
        raise NotAMetric(f"triangle inequality fails on {triple}", triple=triple)
    d = matrix.values
    n = matrix.size
    slack = matrix.tol.slack(2.0 * float(d.max(initial=0.0)))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    sums = sorted(
                        (d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k])
                    )
                    if sums[2] - sums[1] > slack:
                        return False, (i, j, k, l)
    return True, None


def _reference_reconstruction(matrix):
    """``tree_from_distances`` as it was: the brute four-point check, then
    ``_ReferenceBuilder`` and k^2 scalar distances; (edges, label records),
    or raises what it raises."""
    ok, quad = _reference_check_four_point(matrix)
    if not ok:
        raise NotTreeMetric(f"four-point condition fails on {quad}", quadruple=quad)
    d, n, tol = matrix.values, matrix.size, matrix.tol
    snap = tol.slack(float(d.max(initial=1.0))) * 4.0
    builder = _ReferenceBuilder()
    position = [0] * n
    for x in range(1, n):
        dup = next((j for j in range(x) if d[j, x] <= snap), None)
        if dup is not None:
            position[x] = position[dup]
            continue
        best_t, best_j = 0.0, None
        for j in range(1, x):
            t = 0.5 * (d[0, x] + d[0, j] - d[j, x])
            if best_j is None or t > best_t:
                best_t, best_j = t, j
        if best_j is None:
            attach = position[0]
        else:
            best_t = min(max(best_t, 0.0), float(d[0, best_j]))
            attach = builder.locate(position[0], position[best_j], best_t, snap)
        rem = float(d[0, x]) - best_t if best_j is not None else float(d[0, x])
        if rem <= snap:
            position[x] = attach
        else:
            leaf = builder.add_node()
            builder.add_edge(attach, leaf, rem)
            position[x] = leaf
    tree = MetricTree(len(builder.adj), builder.edges(), tol=tol)
    points = {matrix.labels[k]: tree.node_point(position[k]) for k in range(n)}
    verify_slack = tol.slack(float(d.max(initial=1.0))) * 16.0
    for a in range(n):
        for b in range(a + 1, n):
            got = tree.distance(points[matrix.labels[a]], points[matrix.labels[b]])
            if abs(got - d[a, b]) > verify_slack:
                raise NotTreeMetric(
                    f"matrix is not additive: labels ({a}, {b}) re-measure to "
                    f"{got!r}, expected {d[a, b]!r}"
                )
    return tree.edges, {k: p.record() for k, p in points.items()}


def _reconstruction(matrix):
    tree, points = tree_from_distances(matrix)
    return tree.edges, {k: p.record() for k, p in points.items()}


def _outcome(build):
    """``build()``, or (error type, message, triple, quadruple) when it raises."""
    try:
        return build()
    except Exception as exc:  # compared by type, message and payload
        return type(exc), str(exc), getattr(exc, "triple", None), getattr(exc, "quadruple", None)


class TestReconstructionParity:
    """The parent-pointer builder against the BFS one it replaced: the same
    edges in the same order and the same label nodes, or the same error."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        n=st.integers(1, 25),
        k=st.integers(1, 10),
        perturb=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, seed, shape, n, k, perturb):
        rng = np.random.default_rng(seed)
        tree = shaped_tree(rng, shape, n)
        pts = random_points(rng, tree, k)
        pts += [pts[int(i)] for i in rng.integers(0, k, int(rng.integers(0, 3)))]  # duplicates
        pts = [pts[int(i)] for i in rng.permutation(len(pts))]
        m = matrix_from_points(tree, pts)
        if perturb and m.size > 1:
            values = np.array(m.values)
            i, j = rng.choice(m.size, 2, replace=False)
            values[i, j] = values[j, i] = values[i, j] * float(rng.uniform(0.5, 1.5))
            m = DistanceMatrix(m.labels, values)
        want = _outcome(lambda: _reference_reconstruction(m))
        assert _outcome(lambda: _reconstruction(m)) == want

    def test_labels_inside_edges(self):
        # labels inside earlier edges split them and re-hang their lower ends
        tree = MetricTree(4, [(0, 1, 4.0), (1, 2, 3.0), (1, 3, 2.0)])
        pts = [tree.node_point(2), tree.node_point(3), tree.node_point(0),
               tree.edge_point(1, 2, 1.0), tree.edge_point(0, 1, 1.5), tree.edge_point(1, 3, 0.5)]
        m = matrix_from_points(tree, pts)
        edges, records = _reconstruction(m)
        assert (edges, records) == _reference_reconstruction(m)
        assert len(edges) == 6 and len({r["node"] for r in records.values()}) == 6


_TOLERANCES = [Tolerance(a, r) for a in (0.0, 1e-12, 1e-9) for r in (0.0, 1e-9, 1e-6)]


def _noisy_matrix(rng, shape, k, tol, scale):
    """Distances between k random points of a shaped tree, each pair moved
    by symmetric noise of up to ``scale`` times the four-point slack."""
    tree = shaped_tree(rng, shape, int(rng.integers(1, 16)))
    base = matrix_from_points(tree, random_points(rng, tree, k))
    values = np.array(base.values)
    slack = tol.slack(2.0 * float(values.max(initial=0.0)))
    noise = np.triu(rng.uniform(-1.0, 1.0, values.shape) * scale * slack, 1)
    values = np.maximum(values + noise + noise.T, 0.0)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(base.labels, values, tol=tol)


def _assert_recognized_like_reference(m):
    assert m.metric_violation() == _reference_metric_violation(m)
    assert _outcome(lambda: check_four_point(m)) == _outcome(
        lambda: _reference_check_four_point(m)
    )
    assert _outcome(lambda: _reconstruction(m)) == _outcome(
        lambda: _reference_reconstruction(m)
    )


class TestRecognitionParity:
    """Certify-or-scan against the triple and quartic loops it replaced:
    the same triple, verdict, quadruple, error and reconstruction."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        k=st.integers(1, 14),
        tol=st.sampled_from(_TOLERANCES),
        scale=st.floats(0.01, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_noisy_tree_metrics(self, seed, shape, k, tol, scale):
        rng = np.random.default_rng(seed)
        _assert_recognized_like_reference(_noisy_matrix(rng, shape, k, tol, scale))

    # An exact tree metric: reconstruction re-measures every entry (dev ==
    # 0), yet rounding in the pairing sums makes the brute check reject
    # (0, 1, 3, 4) by 8.9e-16.  Under a slack of 1e-16 a certificate
    # without its rounding term would say yes; under a zero slack the
    # strict inequality alone keeps it from certifying.
    ROUNDING = [
        [0.0, 6.512599136652899, 0.7189844699007708, 2.141731386500104, 2.4815776263036327],
        [6.512599136652899, 0.0, 7.231583606553669, 4.3708677501527955, 4.710713989956323],
        [0.7189844699007708, 7.231583606553669, 0.0, 2.8607158564008746, 3.2005620962044032],
        [2.141731386500104, 4.3708677501527955, 2.8607158564008746, 0.0, 0.3398462398035287],
        [2.4815776263036327, 4.710713989956323, 3.2005620962044032, 0.3398462398035287, 0.0],
    ]
    # Accepted by the brute check with a zero slack, but sum - top - low in
    # place of the middle sum leaves 4.4e-16 and rejects (0, 1, 2, 3).
    MIDDLE_SUM = [
        [0.0, 0.21894198138194768, 1.5422496152220377, 1.0335254928524116],
        [0.21894198138194768, 0.0, 1.32330763384009, 0.8145835114704638],
        [1.5422496152220377, 1.32330763384009, 0.0, 0.5087241223696264],
        [1.0335254928524116, 0.8145835114704638, 0.5087241223696264, 0.0],
    ]

    @pytest.mark.parametrize("abs_eps", [0.0, 1e-16])
    def test_rounding_term_needed(self, abs_eps):
        m = DistanceMatrix(tuple("abcde"), np.array(self.ROUNDING), tol=Tolerance(abs_eps, 0.0))
        tree, points = ingest._reconstruct(m)
        measured = matrix_from_points(tree, points).values
        assert np.array_equal(measured, m.values)
        assert check_four_point(m) == (False, (0, 1, 3, 4))
        _assert_recognized_like_reference(m)

    def test_middle_sum_from_max_and_min(self):
        m = DistanceMatrix(tuple("abcd"), np.array(self.MIDDLE_SUM), tol=Tolerance(0.0, 0.0))
        assert check_four_point(m) == (True, None)
        _assert_recognized_like_reference(m)

    def test_first_of_many_violations(self):
        # a 5-cycle of unit edges: many quadruples and triples fail, and both
        # scans must name the first in lexicographic order
        cycle = [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)]
        m = _matrix("abcde", cycle)
        _assert_recognized_like_reference(m)
        assert check_four_point(m) == (False, (0, 1, 2, 3))
        stretched = [[0, 1, 3, 1], [1, 0, 1, 1], [3, 1, 0, 1], [1, 1, 1, 0]]
        _assert_recognized_like_reference(_matrix("abcd", stretched))
        assert _matrix("abcd", stretched).metric_violation() == (0, 1, 2)

    def test_certificate_boundary(self, monkeypatch):
        # the certificate is strict: at 4*dev + (4*n_nodes + 4)*eps*scale ==
        # slack the quadruples are scanned, one ulp of slack above it they
        # are not; a zero slack always scans
        scans = []
        scan = ingest._four_point_violation

        def spy(d, slack):
            scans.append(slack)
            return scan(d, slack)

        monkeypatch.setattr(ingest, "_four_point_violation", spy)
        star = [[0.0 if i == j else 2.0 for j in range(4)] for i in range(4)]  # 5 nodes, dev 0
        bound = (4 * 5 + 4) * float(np.finfo(float).eps) * 4.0
        for abs_eps, scanned in [(bound, True), (np.nextafter(bound, 1.0), False),
                                 (0.0, True), (1e-9, False)]:
            scans.clear()
            m = DistanceMatrix(tuple("abcd"), np.array(star), tol=Tolerance(abs_eps, 0.0))
            assert check_four_point(m) == (True, None)
            assert tree_from_distances(m)[0].n_nodes == 5
            assert bool(scans) == scanned, abs_eps
        scans.clear()
        check_four_point(_matrix("a", [[0.0]]))  # scale 0: 0 < slack holds
        assert scans == []
        check_four_point(DistanceMatrix(("a",), np.zeros((1, 1)), tol=Tolerance(0.0, 0.0)))
        assert scans == [0.0]

    # Labels 2 and 3 of the 4-tip star sit delta further apart than the
    # tree: reconstruction re-measures them with dev near delta.
    @staticmethod
    def _star(delta):
        star = np.array([[0.0 if i == j else 2.0 for j in range(4)] for i in range(4)])
        star[2, 3] = star[3, 2] = 2.0 + delta
        return star

    @pytest.mark.parametrize("delta", [0.0, 1e-12])
    def test_triangle_certificate_boundary(self, delta, monkeypatch):
        # the triangle scan is skipped only when 3*dev + ((3*n_nodes + 5)*
        # scale + 2*slack)*eps < slack (scale twice the largest entry,
        # slack the triangle slack): at the largest slack that fails it the
        # scan runs, one ulp of slack above it it does not
        scans = []
        scan = DistanceMatrix.metric_violation

        def spy(matrix):
            scans.append(matrix.tol.abs_eps)
            return scan(matrix)

        monkeypatch.setattr(DistanceMatrix, "metric_violation", spy)
        eps = float(np.finfo(float).eps)

        def matrix(slack):
            return DistanceMatrix(tuple("abcd"), self._star(delta), tol=Tolerance(slack, 0.0))

        dev = ingest._realize(matrix(1e-11))[2]
        assert (dev > 0.0) == (delta > 0.0)
        n_nodes, scale = 5, 2.0 * (2.0 + delta)  # twice the largest entry

        def certifies(slack):
            return 3.0 * dev + ((3 * n_nodes + 5) * scale + 2.0 * slack) * eps < slack

        first = 3.0 * dev + (3 * n_nodes + 5) * scale * eps
        while not certifies(first):
            first = float(np.nextafter(first, 1.0))
        bound = float(np.nextafter(first, 0.0))
        for slack, scanned in [(bound, True), (first, False)]:
            scans.clear()
            m = matrix(slack)
            built = ingest._realize(m)
            assert built[0].n_nodes == n_nodes and built[2] == dev
            assert check_four_point(m) == (True, None)
            assert scans == ([slack] * 2 if scanned else []), slack
        scans.clear()
        check_four_point(matrix(0.0))
        assert scans == [0.0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        k=st.integers(3, 14),
        tol=st.sampled_from(_TOLERANCES),
        scale=st.floats(0.01, 2.0),
        near=st.booleans(),
        shrink=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_non_metric_matrices(self, seed, shape, k, tol, scale, near, shrink):
        # one pair stretched past the triangle slack, by a few slacks or by
        # a share of the largest entry, and sometimes a second pair shrunk:
        # reconstructing first changes no outcome
        rng = np.random.default_rng(seed)
        values = np.array(_noisy_matrix(rng, shape, k, tol, scale).values)
        i, j = (int(a) for a in rng.choice(k, 2, replace=False))
        via = min(values[i, l] + values[l, j] for l in range(k) if l not in (i, j))
        top = max(float(values.max()), via)
        if near:
            stretch = float(rng.uniform(1.0, 3.0)) * tol.slack(2.0 * top)
        else:
            stretch = float(rng.uniform(0.01, 0.5)) * (top + 1.0)
        values[i, j] = values[j, i] = via + stretch
        if shrink:
            a, b = (int(x) for x in rng.choice(k, 2, replace=False))
            values[a, b] = values[b, a] = values[a, b] * float(rng.uniform(0.0, 1.0))
        labels = tuple(f"p{x}" for x in range(k))
        _assert_recognized_like_reference(DistanceMatrix(labels, values, tol=tol))


class TestDocuments:
    def test_roundtrip_simple(self, simple_doc):
        text = serialize_tree(simple_doc)
        assert parse_tree(text) == simple_doc

    def test_roundtrip_with_edge_points(self, simple_doc):
        doc = simple_doc
        doc.points["mid"] = doc.tree.edge_point(0, 1, 0.75)
        text = serialize_tree(doc)
        assert parse_tree(text) == doc

    def test_single_node_document(self):
        doc = parse_tree("node 0\npoint only node 0\n")
        assert doc.tree.n_nodes == 1
        assert parse_tree(serialize_tree(doc)) == doc

    def test_comments_and_blank_lines(self):
        doc = parse_tree("# header\n\nedge 0 1 2.5  # trailing\n")
        assert doc.tree.edge_length(0) == 2.5

    def test_malformed_edge_line(self):
        with pytest.raises(TreeParseError) as exc:
            parse_tree("edge 0 1\n")
        assert exc.value.line == 1

    def test_bad_number_reports_column(self):
        with pytest.raises(TreeParseError) as exc:
            parse_tree("edge 0 1 abc\n")
        assert exc.value.line == 1
        assert exc.value.column == 10

    def test_unknown_directive(self):
        with pytest.raises(TreeParseError):
            parse_tree("edgee 0 1 1.0\n")

    def test_duplicate_point_name(self):
        with pytest.raises(TreeParseError):
            parse_tree("edge 0 1 1.0\npoint a node 0\npoint a node 1\n")

    def test_skipped_node_id_named(self):
        with pytest.raises(TreeParseError, match="node 2 is missing"):
            parse_tree("edge 0 1 1.0\nedge 1 3 1.0\n")

    def test_huge_node_id_rejected_before_allocation(self):
        start = time.perf_counter()
        with pytest.raises(TreeParseError, match="node 2 is missing"):
            parse_tree("edge 0 1 1.0\nedge 1 1000000000 1.0\n")
        assert time.perf_counter() - start < 1.0

    def test_negative_node_id(self):
        with pytest.raises(TreeParseError, match="-1 is negative"):
            parse_tree("edge -1 0 1.0\n")

    @pytest.mark.parametrize("text, line, column, message", [
        ("edge 0 1 1.0\nedge 1 2 1.0\nedge 2 3 1.0\nedge 1 5 1.0\n", 4, 8, "node 4 is missing"),
        ("edge 3 0 1.0\nedge 0 1 1.0\n", 1, 6, "node 2 is missing"),
        ("point a node 9\nedge 0 1 1.0\nedge 1 9 1.0\n", 3, 8, "node 2 is missing"),
        ("edge 0 1 1.0\n  edge 1 7 1.0  # indented\n", 2, 10, "node 2 is missing"),
        ("node 0\nnode 4\n", 2, 6, "node 1 is missing"),
        ("edge 0 1 1.0\n# c\nnode -1\nedge 1 -1 2.0\n", 3, 6, "node id -1 is negative"),
        ("edge 0 -2 1.0\nedge -1 0 2.0\nedge 1 -2 1.0\n", 1, 8, "node id -2 is negative"),
        ("# nothing\n\n", 1, 1, "document defines no nodes"),
    ])
    def test_id_errors_name_their_token(self, text, line, column, message):
        # every id error used to read line 1, column 1
        with pytest.raises(TreeParseError, match=re.escape(message)) as info:
            parse_tree(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_offset_beyond_edge_length(self):
        with pytest.raises(TreeParseError, match=r"^line 2, column 1: offset 1.5 outside") as info:
            parse_tree("edge 0 1 1.0\npoint a edge 0 1 1.5\n")
        assert isinstance(info.value.__cause__, ParameterOutOfRange)

    @pytest.mark.parametrize("text, line, message", [
        ("edge 0 1 1.0\npoint a node 3\n", 2, "node 3 does not exist (tree has 2 nodes)"),
        ("edge 0 1 1.0\nedge 1 2 1.0\n\npoint a edge 0 2 0.5\n", 4, "no edge between nodes 0 and 2"),
        ("edge 0 1 1.0\npoint a node 0\npoint b edge 1 0 -0.5\n", 3, "offset -0.5 outside"),
    ])
    def test_point_errors_name_their_line(self, text, line, message):
        with pytest.raises(TreeParseError, match=f"^line {line}, column 1: {re.escape(message)}"):
            parse_tree(text)

    @pytest.mark.parametrize("name", ["a b", "c#d", "", "x\ty", "#", "tail\xa0", "line\x85"])
    def test_unwritable_point_name(self, simple_doc, name):
        simple_doc.points[name] = simple_doc.tree.node_point(0)
        with pytest.raises(BadParams, match=re.escape(repr(name))):
            serialize_tree(simple_doc)

    def test_written_names_parse_back(self, simple_doc):
        for name in ("x-y", "p.1", "\u00e9t\u00e9", "node", "edge"):
            simple_doc.points[name] = simple_doc.tree.node_point(1)
        assert parse_tree(serialize_tree(simple_doc)) == simple_doc

    def test_roundtrip_random_documents(self, rng):
        from metrictrees import TreeDocument

        for _ in range(20):
            tree = random_tree(rng, max_nodes=10)
            pts = {f"p{i}": q for i, q in enumerate(random_points(rng, tree, 4))}
            doc = TreeDocument(tree, pts)
            doc1 = parse_tree(serialize_tree(doc))
            assert doc1 == doc
            assert parse_tree(serialize_tree(doc1)) == doc1

    def test_unequal_documents(self):
        doc = parse_tree("edge 0 1 1.0\nedge 1 2 1.0\npoint a node 1\n")
        assert doc.__eq__(doc.tree) is NotImplemented and doc != "doc"
        for other in ("edge 0 1 1.0\nedge 1 2 2.0\npoint a node 1\n",  # another tree
                      "edge 0 1 1.0\nedge 1 2 1.0\npoint b node 1\n",  # another name
                      "edge 0 1 1.0\nedge 1 2 1.0\npoint a node 2\n"):  # another place
            assert doc != parse_tree(other)
        assert doc == parse_tree("edge 2 1 1.0\nedge 1 0 1.0\npoint a edge 0 1 1.0\n")


class TestGallery:
    def test_simple_matches_expected_shape(self, simple_doc):
        t = simple_doc.tree
        assert t.n_nodes == 4
        assert sorted(simple_doc.points) == ["A", "B", "C", "D"]

    def test_star_tip_distances(self):
        doc = gallery("star", n=3, spoke_len=1.0)
        t = doc.tree
        for i in range(1, 4):
            for j in range(i + 1, 4):
                d = t.distance(doc.points[f"tip{i}"], doc.points[f"tip{j}"])
                assert d == pytest.approx(2.0)

    def test_star_scaled(self):
        doc = gallery("star", n=4, spoke_len=2.5)
        d = doc.tree.distance(doc.points["tip1"], doc.points["tip4"])
        assert d == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_comb_noncompact_distances(self, n):
        doc = gallery("comb_noncompact", n=n)
        t = doc.tree
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                want = 2.0 + abs(1.0 / i - 1.0 / j)
                got = t.distance(doc.points[f"tip{i}"], doc.points[f"tip{j}"])
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_comb_compact_distances(self, n):
        doc = gallery("comb_compact", n=n)
        t = doc.tree
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                want = 1.0 / i + abs(1.0 / i - 1.0 / j) + 1.0 / j
                got = t.distance(doc.points[f"tip{i}"], doc.points[f"tip{j}"])
                assert got == pytest.approx(want, abs=1e-12)

    def test_comb_origin_to_tip(self):
        doc = gallery("comb_compact", n=4)
        # origin -> spine run 1/4 -> tooth of length 1/4
        got = doc.tree.distance(doc.points["origin"], doc.points["tip4"])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_unknown_gallery(self):
        with pytest.raises(UnknownGallery):
            gallery("nope")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gallery("star")  # n missing
        with pytest.raises(BadParams):
            gallery("star", n=0)
        with pytest.raises(BadParams):
            gallery("star", n=3, spoke_len=-1.0)
        with pytest.raises(BadParams):
            gallery("simple", n=3)
        # non-finite counts used to escape int() as ValueError/OverflowError
        for name, n in [("star", math.nan), ("star", math.inf), ("comb_compact", float("1e400")),
                        ("comb_noncompact", -math.inf), ("star", 2.5), ("star", "3")]:
            message = f"parameter 'n' must be an integer >= 1, got {n!r}"
            with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
                gallery(name, n=n)

    @pytest.mark.parametrize("name, params, extra", [
        ("star", {"n": 3, "m": 1}, ["m"]),
        ("star", {"n": 3, "spoke_len": 1.0, "teeth": 2, "arms": 1}, ["arms", "teeth"]),
        ("comb_compact", {"n": 2, "spoke_len": 1.0}, ["spoke_len"]),
        ("comb_noncompact", {"n": 2, "x": 0}, ["x"]),
    ])
    def test_unexpected_parameters(self, name, params, extra):
        with pytest.raises(BadParams, match=f"^{re.escape(f'unexpected parameters {extra}')}$"):
            gallery(name, **params)

    def test_bool_count(self):
        # True used to read as n = 1
        with pytest.raises(BadParams, match="^parameter 'n' must be an integer >= 1, got True$"):
            gallery("star", n=True)

    @pytest.mark.parametrize("spoke_len", [math.inf, math.nan, True, "1.0", 0.0])
    def test_bad_spoke_len(self, spoke_len):
        # inf used to raise NonpositiveEdgeLength naming edge (0, 1); True read as 1.0
        with pytest.raises(BadParams, match="parameter 'spoke_len' must be positive and finite"):
            gallery("star", n=3, spoke_len=spoke_len)

    def test_four_point_accepts_gallery_matrices(self):
        for name, params in [
            ("simple", {}),
            ("star", {"n": 5}),
            ("comb_compact", {"n": 4}),
            ("comb_noncompact", {"n": 4}),
        ]:
            doc = gallery(name, **params)
            m = matrix_from_points(doc.tree, doc.points)
            ok, _ = check_four_point(m)
            assert ok


class TestMatrixText:
    def test_csv_roundtrip(self):
        m = _matrix("abc", [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        m2 = parse_matrix(format_matrix_csv(m))
        assert m2.labels == m.labels
        assert np.allclose(m2.values, m.values)

    def test_lower_triangle(self):
        text = "a\nb 3.0\nc 4.0 5.0\n"
        m = parse_matrix(text)
        assert m.labels == ("a", "b", "c")
        assert m.entry(2, 1) == 5.0
        assert m.entry(0, 2) == 4.0

    def test_asymmetric_csv_rejected(self):
        text = ",a,b\na,0,1\nb,2,0\n"
        with pytest.raises(InvalidDistanceMatrix):
            parse_matrix(text)

    def test_ragged_triangle_rejected(self):
        with pytest.raises(InvalidDistanceMatrix):
            parse_matrix("a\nb 1.0 2.0\n")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidDistanceMatrix):
            parse_matrix("a\nb x\n")

    def test_oversized_csv_field_rejected(self):
        # csv.reader's own error, beyond its field size limit, is typed too
        with pytest.raises(InvalidDistanceMatrix, match=r"^unreadable CSV: .*field limit"):
            parse_matrix(",a\na," + "1" * 200_000 + "\n")

    @pytest.mark.parametrize("text", ["", "\n  \n", "# a comment\n\n  # another\n"])
    def test_empty_document_rejected(self, text):
        with pytest.raises(InvalidDistanceMatrix, match="^empty matrix document$"):
            parse_matrix(text)

    @pytest.mark.parametrize("text, message", [
        (",a,b,c\na,0,1,1\nb,1,0,1\n", "expected 3 data rows, got 2"),
        (",a,b\na,0,1\nb,1,0\nc,1,1\n", "expected 2 data rows, got 3"),
    ])
    def test_csv_row_count(self, text, message):
        with pytest.raises(InvalidDistanceMatrix, match=f"^{message}$"):
            parse_matrix(text)

    @pytest.mark.parametrize("text, message", [
        (",a,b,c\na,0,x,1\nb,1,0\nc,1,1,0\n", "row 1: could not convert string to float: 'x'"),
        (",a,b,c\na,0,x,1\nz,1,0,1\nc,1,1,0\n", "row 1: could not convert string to float: 'x'"),
        (",a,b,c\na,0,1,1\nz,1,y,1\nc,1,1,0\n", "row label 'z' does not match column label 'b'"),
        ("a\nb x\nc 1.0\n", "row 1: could not convert string to float: 'x'"),
        ("a\nb 1.0\nc 1.0 y 2.0\n", "row 2: could not convert string to float: 'y'"),
    ])
    def test_first_bad_row_named(self, text, message):
        # a bad value in an earlier row, or in the same whitespace row, comes
        # before a row of the wrong shape; a CSV row label before its values
        with pytest.raises(InvalidDistanceMatrix, match=f"^{re.escape(message)}$"):
            parse_matrix(text)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        csv_form=st.booleans(),
        faults=st.lists(st.sampled_from(
            ["token", "mirror", "equal", "short", "long", "label", "quote", "blank", "comment"]
        ), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_parses_like_reference(self, seed, n, csv_form, faults):
        # against the row-by-row parser: the same labels and values, or the
        # same error, naming the same first bad row
        rng = np.random.default_rng(seed)
        text = _matrix_text(rng, n, csv_form, faults)
        assert _matrix_outcome(parse_matrix, text) == _matrix_outcome(_parse_matrix_reference, text)


_ODD_VALUES = ["x", "", "1_0", " 2 ", "nan", "inf", "-1", "1e400", "\u0661", "0x1p3", "1,5"]


def _matrix_text(rng, n, csv_form, faults):
    """A CSV or lower-triangle text of a random metric on n labels, with
    the ``faults`` applied: odd tokens, a mirror entry written differently
    or to another value, rows one value short or long, a wrong row label,
    quoted fields, blank and comment lines."""
    pts = rng.uniform(0.0, 3.0, (n, 2))
    values = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
    rows = [[repr(float(v)) for v in row] for row in values]
    if not csv_form:
        rows = [row[:i] for i, row in enumerate(rows)]
    labels = [f"L{i}" for i in range(n)]
    for fault in faults:
        i = int(rng.integers(0, max(n, 1)))
        if not n or fault in ("quote", "blank", "comment"):
            continue
        if fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["1.0"]
        elif fault == "label":
            labels[i] += "x"
        elif rows[i]:
            j = int(rng.integers(0, min(len(rows[i]), n)))
            if fault == "token":
                rows[i][j] = _ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))]
            elif fault == "mirror":
                rows[i][j] = repr(float(values[i, j]) + float(rng.choice([1e-12, 0.5])))
            else:  # the same value, other text
                rows[i][j] = f"{float(values[i, j]):.25f}"
    if csv_form:
        cell = (lambda c: f'"{c}"') if "quote" in faults else (lambda c: c)
        lines = [",".join(map(cell, [""] + [f"L{i}" for i in range(n)]))]
        lines += [",".join(map(cell, [lab] + row)) for lab, row in zip(labels, rows)]
    else:
        lines = [" ".join([lab] + row) for lab, row in zip(labels, rows)]
    for fault, line in (("blank", "   "), ("comment", "# a comment, 1, 2")):
        if fault in faults:
            lines.insert(int(rng.integers(len(lines) + 1)), line)
    return "\n".join(lines) + "\n"


def _matrix_outcome(parse, text):
    try:
        m = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return m.labels, m.values.tobytes()


def _parse_matrix_reference(text, tol=None):
    """``parse_matrix`` as it was: each row's values converted by ``float``
    where the row is read."""
    import csv
    import io

    tol = tol if tol is not None else Tolerance()
    stripped = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not stripped:
        raise InvalidDistanceMatrix("empty matrix document")
    if "," in stripped[0]:
        rows = list(csv.reader(io.StringIO("\n".join(stripped))))
        labels = [c.strip() for c in rows[0][1:]]
        n = len(labels)
        if len(rows) != n + 1:
            raise InvalidDistanceMatrix(f"expected {n} data rows, got {len(rows) - 1}")
        values = np.zeros((n, n))
        for i, row in enumerate(rows[1:]):
            if len(row) != n + 1:
                raise InvalidDistanceMatrix(f"row {i + 1} has {len(row) - 1} values, expected {n}")
            if row[0].strip() != labels[i]:
                raise InvalidDistanceMatrix(
                    f"row label {row[0].strip()!r} does not match column label {labels[i]!r}"
                )
            try:
                values[i] = [float(c) for c in row[1:]]
            except ValueError as exc:
                raise InvalidDistanceMatrix(f"row {i + 1}: {exc}")
        return DistanceMatrix(tuple(labels), values, tol=tol)
    labels = []
    tri = []
    for i, line in enumerate(stripped):
        toks = line.split()
        labels.append(toks[0])
        try:
            vals = [float(t) for t in toks[1:]]
        except ValueError as exc:
            raise InvalidDistanceMatrix(f"row {i}: {exc}")
        if len(vals) != i:
            raise InvalidDistanceMatrix(
                f"row {i} ({toks[0]!r}) has {len(vals)} values, expected {i}"
            )
        tri += vals
    n = len(labels)
    values = np.zeros((n, n))
    rows, cols = np.tril_indices(n, -1)
    values[rows, cols] = values[cols, rows] = tri
    return DistanceMatrix(tuple(labels), values, tol=tol)


_REF_TOKEN = re.compile(r"\S+")


def _parse_tree_reference(text, tol=None):
    """The regex tokenizer ``parse_tree`` replaced, kept as the reference."""
    node_ids = set()
    id_tokens = []  # (id, line, column) of each id on a node or edge line, in order
    edge_lines = []
    point_lines = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _REF_TOKEN.finditer(line)]
        if not tokens:
            continue
        words = [t for t, _ in tokens]
        cols = [c for _, c in tokens]

        def want_int(k: int) -> int:
            try:
                return int(words[k])
            except ValueError:
                raise TreeParseError(f"expected integer, got {words[k]!r}", lineno, cols[k])

        def want_float(k: int) -> float:
            try:
                return float(words[k])
            except ValueError:
                raise TreeParseError(f"expected number, got {words[k]!r}", lineno, cols[k])

        kind = words[0]
        if kind == "node":
            if len(words) != 2:
                raise TreeParseError("node line takes one id", lineno, cols[0])
            k = want_int(1)
            node_ids.add(k)
            id_tokens.append((k, lineno, cols[1]))
        elif kind == "edge":
            if len(words) != 4:
                raise TreeParseError("edge line takes: edge <u> <v> <length>", lineno, cols[0])
            u, v = want_int(1), want_int(2)
            edge_lines.append((lineno, cols[0], (u, v, want_float(3))))
            node_ids.update((u, v))
            id_tokens += [(u, lineno, cols[1]), (v, lineno, cols[2])]
        elif kind == "point":
            if len(words) < 3:
                raise TreeParseError(
                    "point line takes: point <name> node <id> | edge <u> <v> <offset>",
                    lineno,
                    cols[0],
                )
            name, mode = words[1], words[2]
            if mode == "node" and len(words) == 4:
                point_lines.append((lineno, name, ["node"], [want_int(3)]))
            elif mode == "edge" and len(words) == 6:
                point_lines.append(
                    (lineno, name, ["edge", words[5]], [want_int(3), want_int(4)])
                )
                _ = want_float(5)
            else:
                raise TreeParseError("malformed point line", lineno, cols[0])
        else:
            raise TreeParseError(f"unknown directive {kind!r}", lineno, cols[0])

    if not node_ids:
        raise TreeParseError("document defines no nodes", 1, 1)
    n_nodes = len(node_ids)
    # an id error names the first token of the id at fault
    low = min(node_ids)
    if low < 0:
        at = next((ln, col) for k, ln, col in id_tokens if k == low)
        raise TreeParseError(f"node id {low} is negative", *at)
    if max(node_ids) >= n_nodes:
        # checked before the tree allocates max(id) + 1 slots; some id in
        # 0..n_nodes is free because only n_nodes of them are used
        missing = next(k for k in range(n_nodes + 1) if k not in node_ids)
        at = next((ln, col) for k, ln, col in id_tokens if k >= n_nodes)
        raise TreeParseError(
            f"node ids must be 0..n-1 with none skipped; node {missing} is missing", *at
        )
    edges = [e for _, _, e in edge_lines]
    try:
        tree = MetricTree(n_nodes, edges, tol=tol)
    except (CycleDetected, DuplicateEdge, NonpositiveEdgeLength) as exc:
        # the edge at fault ends the shortest prefix that fails to build for
        # a reason other than too few edges
        for m, (lineno, col, _) in enumerate(edge_lines, start=1):
            try:
                MetricTree(n_nodes, edges[:m])
            except Disconnected:
                continue
            except MetricTreeError:
                raise type(exc)(f"line {lineno}, column {col}: {exc}") from None
        raise

    points = {}
    for lineno, name, mode, ids in point_lines:
        if name in points:
            raise TreeParseError(f"duplicate point name {name!r}", lineno)
        try:
            if mode[0] == "node":
                points[name] = tree.node_point(ids[0])
            else:
                points[name] = tree.edge_point(ids[0], ids[1], float(mode[1]))
        except (BadParams, ParameterOutOfRange) as exc:
            raise TreeParseError(str(exc), lineno) from exc
    return TreeDocument(tree, points)


# token separators inside a line; \x0b and \x0c also end a line for
# str.splitlines, so they are only used as padding, where they add lines
_SEPS = (" ", "\t", "\x1f", "\xa0", " \t", "\xa0\x1f\t")
_PADS = ("", "", " ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\t\x0c ")


# ASCII digits to Arabic-Indic ones, which int and float read too
_NON_ASCII_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                  "\u0665\u0666\u0667\u0668\u0669")


def _doc_lines(rng, n, python_only=None):
    """Token lists of a valid document on n nodes: edges in random order and
    orientation, some node lines, points of both forms.  With
    ``python_only`` (by default in half the documents) some numbers take
    forms that ``int`` and ``float`` read but ``np.loadtxt`` does not:
    underscores and non-ASCII digits."""
    perm = rng.permutation(n)
    edges = []
    for i in range(1, n):
        u, v = int(perm[int(rng.integers(0, i))]), int(perm[i])
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, float(rng.uniform(0.2, 2.5))))
    edges = [edges[i] for i in rng.permutation(len(edges))]
    if python_only is None:
        python_only = rng.random() < 0.5

    def num(x):
        text = str(rng.choice([repr(x), f"{x:.6e}"])) if isinstance(x, float) else (
            str(rng.choice([str(x), f"+{x}", f"0{x}"]))
        )
        if python_only and rng.random() < 0.2:
            text = str(rng.choice([f"0_{text.lstrip('+')}", text.translate(_NON_ASCII_DIGITS)]))
        return text

    lines = [["edge", num(u), num(v), num(x)] for u, v, x in edges]
    lines += [["node", num(int(k))] for k in rng.choice(n, int(rng.integers(n == 1, 3)))]
    for k in range(int(rng.integers(0, 5))):
        if edges and rng.random() < 0.6:
            u, v, x = edges[int(rng.integers(0, len(edges)))]
            lines.append(["point", f"p{k}", "edge", num(u), num(v), num(x * rng.random())])
        else:
            lines.append(["point", f"p{k}", "node", num(int(rng.integers(0, n)))])
    return [lines[i] for i in rng.permutation(len(lines))]


def _render(rng, lines):
    """Document text: random separators, padding, comments, blank lines and
    line endings around the token lists (a list of tokens or a raw string)."""
    out = []
    for tokens in lines:
        if rng.random() < 0.2:
            out.append(str(rng.choice(["", "# a comment: edge 0 1 x", "   ", "#"])))
        if isinstance(tokens, str):
            text = tokens
        else:
            text = tokens[0]
            for tok in tokens[1:]:
                text += str(rng.choice(_SEPS)) + tok
        text = str(rng.choice(_PADS)) + text + str(rng.choice(_PADS))
        if rng.random() < 0.2:
            text += str(rng.choice(_SEPS)) + "# trailing edge 1 2 #x"
        out.append(text)
    ending = str(rng.choice(["\n", "\r\n"]))
    return ending.join(out) + str(rng.choice(["", ending]))


def _parse_outcome(parse, text):
    """The parsed document's edges and point records, or the error raised."""
    try:
        doc = parse(text)
    except TreeParseError as exc:
        return TreeParseError, exc.line, exc.column, str(exc)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return doc.tree.n_nodes, doc.tree.edges, {k: p.record() for k, p in doc.points.items()}


# malformed lines, each with the name of what is wrong with it
_BAD_LINES = {
    "short_edge": "edge 0 1",
    "long_edge": "edge 0 1 1.0 7",
    "bad_int_u": "edge x 1 1.0",
    "bad_int_v": "edge 0 1.5 1.0",
    "float_id": "edge 0 1.0 2.0",
    "bad_float": "edge 0 1 abc",
    "two_bad_numbers": "edge 0 y zz",
    "short_point": "point p",
    "point_no_mode": "point p node",
    "point_long_node": "point p node 1 2",
    "point_short_edge": "point p edge 0 1",
    "point_unknown_mode": "point p vertex 0",
    "point_bad_node_id": "point p node one",
    "point_bad_edge_id": "point p edge 0 q 1.0",
    "point_bad_offset": "point p edge 0 1 far",
    "short_node": "node",
    "long_node": "node 1 2",
    "bad_node_id": "node zero",
    "unknown_directive": "edgee 0 1 1.0",
    "capitalized_directive": "Edge 0 1 1.0",
    "indented_bad_float": " \t\xa0edge 0 1 abc",
    "bad_float_before_comment": "edge 0 1 abc # edge 0 1 1.0",
    "unknown_after_indent": "\xa0\x1f  vertex 0",
}


class TestParseParity:
    """``parse_tree`` against the regex tokenizer it replaced."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_documents_parse_like_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        text = _render(rng, _doc_lines(rng, n))
        got = _parse_outcome(parse_tree, text)
        assert got == _parse_outcome(_parse_tree_reference, text)
        assert got[0] == n  # a valid document

    @pytest.mark.parametrize("kind", sorted(_BAD_LINES))
    def test_malformed_line_raises_like_reference(self, kind, rng):
        for _ in range(5):
            lines = _doc_lines(rng, int(rng.integers(1, 8)))
            lines.insert(int(rng.integers(0, len(lines) + 1)), _BAD_LINES[kind])
            text = _render(rng, lines)
            got = _parse_outcome(parse_tree, text)
            assert got[0] is TreeParseError
            assert got == _parse_outcome(_parse_tree_reference, text)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_long_documents_like_reference(self, seed):
        # hundreds of lines, with up to two bad lines anywhere: the first
        # in the document is the one named
        rng = np.random.default_rng(seed)
        lines = _doc_lines(rng, int(rng.integers(250, 800)))
        for _ in range(int(rng.integers(0, 3))):
            bad = str(rng.choice(list(_BAD_LINES.values())))
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
        text = _render(rng, lines)
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n\n",
            "edge -1 0 1.0\n",
            "edge 0 1 1.0\nedge 1 3 1.0\n",
            "node 0\nnode 2\n",
            "edge 0 1 1.0\npoint a node 0\npoint a node 1\n",
            "edge 0 1 1.0\npoint a edge 0 1 1.5\n",
            "edge 0 1 1.0\npoint a edge 0 1 nan\n",
            "edge 0 1 1.0\nedge 1 0 2.0\n",
            "edge 0 1 0.0\n",
            "edge 0 1 1.0\npoint a node 2\n",
        ],
    )
    def test_document_errors_like_reference(self, text):
        got = _parse_outcome(parse_tree, text)
        assert isinstance(got[0], type)
        assert got == _parse_outcome(_parse_tree_reference, text)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_whitespace_like_reference(self, seed):
        # separators may include line breaks here, so most documents fail;
        # both parsers must fail the same way
        rng = np.random.default_rng(seed)
        lines = _doc_lines(rng, int(rng.integers(1, 8)))
        if rng.random() < 0.5:
            lines.insert(0, str(rng.choice(list(_BAD_LINES.values()))))
        text = "\n".join(
            str(rng.choice(_PADS)).join(tokens) + str(rng.choice(_PADS)) for tokens in lines
        )
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)


def _bench_text(rng, n):
    """A document as the benchmark writes one: ids permuted, edges in random
    order and orientation, then 24 points, repr floats, one "\\n" per line."""
    perm = rng.permutation(n)
    parent = [int(rng.integers(0, i)) for i in range(1, n)]
    length = rng.uniform(0.2, 2.5, n - 1).tolist()
    lines = []
    for c in rng.permutation(n - 1).tolist():
        u, v = int(perm[parent[c]]), int(perm[c + 1])
        lines.append(f"edge {u} {v} {length[c]!r}" if rng.random() < 0.5 else
                     f"edge {v} {u} {length[c]!r}")
    for k in range(24):
        c = int(rng.integers(0, n - 1))
        if rng.random() < 0.25:
            lines.append(f"point p{k} node {perm[c + 1]}")
        else:
            up = float(rng.uniform(0.0, 1.0)) * length[c]
            lines.append(f"point p{k} edge {perm[c + 1]} {perm[parent[c]]} {up!r}")
    return "\n".join(lines) + "\n"


def _bulk_text(rng, lines, seps=_SEPS, edges_first=False):
    """Document text whose token lists (or raw strings) start their lines:
    separators from ``seps``, comments, blank lines, node lines between
    them, and "\\n" or "\\r\\n" line endings.  With ``edges_first`` the
    edge lines come first, in their order, with no node line among them."""
    if edges_first:
        lines = sorted(lines, key=lambda tokens: tokens[0] != "edge")
    out = []
    for tokens in lines:
        if rng.random() < 0.2:
            fills = ["", "# edge 0 1 x", "   ", "#", "\tnode 0 # x"]
            in_block = edges_first and tokens[0] == "edge"
            out.append(str(rng.choice(fills[:-1] if in_block else fills)))
        if isinstance(tokens, str):
            text = tokens
        else:
            text = tokens[0] + "".join(str(rng.choice(seps)) + tok for tok in tokens[1:])
        if rng.random() < 0.3:
            text += str(rng.choice(seps)) + "# trailing edge 1 2 #x"
        out.append(text)
    ending = str(rng.choice(["\n", "\r\n"]))
    return ending.join(out) + str(rng.choice(["", ending]))


def _edges_first(text):
    """Whether no data line comes before the last line of ``text`` that
    starts with "edge": every line before it is an edge line, indented or
    not, or blank or a comment."""
    lines = text.splitlines()
    edges = [k for k, line in enumerate(lines) if line.startswith("edge")]
    return bool(edges) and all(
        line.split("#", 1)[0].split()[:1] in ([], ["edge"]) for line in lines[: edges[-1]]
    )


def _bulk_only_when_edges_first(monkeypatch):
    """Make the line reader over the whole document fail on a document that
    lists its edges first; a document with a data line among its edges
    still goes to it."""
    read_document = ingest._read_document

    def read(text):
        assert not _edges_first(text), "an edges-first document left the bulk pass"
        return read_document(text)

    monkeypatch.setattr(ingest, "_read_document", read)


class TestBulkPass:
    """Valid documents of the shapes the CLI reads never reach the line
    reader over the whole document when they list their edges first."""

    @pytest.fixture(autouse=True)
    def no_line_reader_path(self, monkeypatch):
        _bulk_only_when_edges_first(monkeypatch)

    def test_bench_documents(self, rng):
        for n in (2, 3, 50, 700):
            text = _bench_text(rng, n)
            got = _parse_outcome(parse_tree, text)
            assert got[0] == n
            assert got == _parse_outcome(_parse_tree_reference, text)

    def test_comments_nodes_crlf_and_interleaved_points(self, rng):
        # each document in both forms: edges first, which the block pass
        # reads, and with data lines among the edges, which go to the line
        # reader
        ascii_seps = [sep for sep in _SEPS if sep.isascii()]
        for _ in range(60):
            n = int(rng.integers(2, 40))
            lines = _doc_lines(rng, n, python_only=False)
            lines.append("point \u00e9t\u00e9 node 0")
            for edges_first in (False, True):
                text = _bulk_text(rng, lines, ascii_seps, edges_first)
                assert _edges_first(text) or not edges_first
                got = _parse_outcome(parse_tree, text)
                assert got[0] == n
                assert got == _parse_outcome(_parse_tree_reference, text)


class TestBulkParity:
    """Documents the bulk pass reads, or starts to, against the reference."""

    @pytest.mark.parametrize("kind", sorted(_BAD_LINES))
    def test_malformed_line_raises_like_reference(self, kind, rng):
        for _ in range(5):
            lines = _doc_lines(rng, int(rng.integers(1, 8)))
            lines.insert(int(rng.integers(0, len(lines) + 1)), _BAD_LINES[kind])
            text = _bulk_text(rng, lines)
            got = _parse_outcome(parse_tree, text)
            assert got[0] is TreeParseError
            assert got == _parse_outcome(_parse_tree_reference, text)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_documents_parse_like_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        text = _bulk_text(rng, _doc_lines(rng, n))
        got = _parse_outcome(parse_tree, text)
        assert got == _parse_outcome(_parse_tree_reference, text)
        assert got[0] == n

    @pytest.mark.parametrize(
        "text",
        [
            "edge 0 9223372036854775808 1.0\n",  # beyond int64
            "edge 0 1 1.0\nedge 1 1000000000 1.0\n",
            "edge 0 1 1.0\nnode 2\n",  # a node without an edge
            "edge 0 1 1.0\nnode -1\n",
            "edge 0 2 1.0\nedge 2 0 1.0\n",  # a build on m + 1 nodes fails
            "edge 0 1 1.0\nedge 1 2 -1.0\n",
            "edge 0 1 1.0\n edge 1 2 1.0\n",  # an edge line the line reader finds
            "edge 0 1 1.0\nedge\t1 2 1.0\npoint a node 3\n",
            "edge 0 1 1.0\npoint a edge 0 1 2.0\npoint b nod 0\n",
            "edgex 0 1 1.0\n",
            "edge 0 1 1_0.5\n",
            "edge 0 \u0661 1.0\n",
            "edge 0 1 1.0\xa0\n",
        ],
    )
    def test_documents_like_reference(self, text):
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)

    def test_non_ascii_letter_is_no_digit(self):
        # numpy 2.4 reads U+01FE in an integer column as the digit 462 (its
        # code point less that of "0"): a valid id on this 470-node path
        lines = [f"edge {i} {i + 1} 1.0" for i in range(469)]
        lines[461] = "edge 461 \u01fe 1.0"
        text = "\n".join(lines) + "\n"
        got = _parse_outcome(parse_tree, text)
        assert got[0] is TreeParseError
        assert got == _parse_outcome(_parse_tree_reference, text)

    @pytest.mark.parametrize("text", ["edge 0 1.5 1.0\n", "edge 0 1.0 2.0\n"])
    def test_fractional_id_raises_with_warnings_ignored(self, text):
        # the bulk pass relies on loadtxt rejecting a fraction in an integer
        # column, as numpy 2 does; numpy 1.23-1.26 reads "1.5" as 1 and only
        # warns, and read as (0, 1), each document would be a valid tree
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _parse_outcome(parse_tree, text)
        assert got[0] is TreeParseError
        assert got == _parse_outcome(_parse_tree_reference, text)


@pytest.mark.parametrize("version, refused", [("1.26.4", True), ("2.0.0", False)])
def test_numpy_floor(version, refused):
    """Under a numpy older than 2.0, whose loadtxt the bulk pass cannot
    trust, the package refuses to import, naming the floor."""
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import numpy; numpy.__version__ = {version!r}; import metrictrees"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    if refused:
        assert proc.returncode == 1
        assert f"ImportError: metrictrees needs numpy >= 2.0, found {version}" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr


def _block_text(rng, n, seps, tail=()):
    """An edges-first document on n nodes: the edge lines, some indented,
    with blank and comment-only lines and trailing comments among them, the
    last one unindented and no "o" among them; then node and point lines and
    the raw ``tail``."""
    lines = _doc_lines(rng, n, python_only=False)
    edges = [tokens for tokens in lines if tokens[0] == "edge"]
    out = []
    for k, tokens in enumerate(edges):
        if rng.random() < 0.2:
            out.append(str(rng.choice(["", "   ", "#", "# edge 0 1 x", "\t# a leaf: edge 2 1"])))
        text = tokens[0] + "".join(str(rng.choice(seps)) + tok for tok in tokens[1:])
        if k < len(edges) - 1 and rng.random() < 0.3:
            text = str(rng.choice(seps)) + text
        if rng.random() < 0.3:
            text += str(rng.choice(seps)) + "# trailing edge 1 2 #x"
        out.append(text)
    out += [" ".join(tokens) for tokens in lines if tokens[0] != "edge"]
    out += tail
    ending = str(rng.choice(["\n", "\r\n"]))
    return ending.join(out) + str(rng.choice(["", ending]))


class TestEdgeBlock:
    """Documents that list their edges first are read by one loadtxt pass
    over the block of lines up to the last edge line, and the line reader
    over the whole document does not run.  Other documents go to it."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """Counts of the ``np.loadtxt`` calls and of the full line reader's
        runs."""
        counts = {"loadtxt": 0, "lines": 0}
        loadtxt, read_document = np.loadtxt, ingest._read_document

        def counted_loadtxt(*args, **kwargs):
            counts["loadtxt"] += 1
            return loadtxt(*args, **kwargs)

        def counted_read(text):
            counts["lines"] += 1
            return read_document(text)

        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        monkeypatch.setattr(ingest, "_read_document", counted_read)
        return counts

    def test_edges_first_documents_read_in_the_block(self, paths, rng):
        ascii_seps = [sep for sep in _SEPS if sep.isascii()]
        for _ in range(80):
            n = int(rng.integers(2, 40))
            text = _block_text(rng, n, ascii_seps, ["point \u00e9t\u00e9 node 0 # \u00e9"])
            got = _parse_outcome(parse_tree, text)
            assert got[0] == n
            assert got == _parse_outcome(_parse_tree_reference, text)
        assert paths == {"loadtxt": 80, "lines": 0}

    @pytest.mark.parametrize("sep", ["\t", "\x1f", " \t\x1f"])
    def test_separators(self, paths, sep):
        text = f"edge{sep}0{sep}1{sep}1.5\n{sep}edge{sep}1{sep}2{sep}2.0{sep}# x\nedge 2 3 1\n"
        got = _parse_outcome(parse_tree, text)
        assert got == (4, ((0, 1, 1.5), (1, 2, 2.0), (2, 3, 1.0)), {})
        assert got == _parse_outcome(_parse_tree_reference, text)
        assert paths == {"loadtxt": 1, "lines": 0}

    def test_serialized_documents(self, paths, rng):
        docs = [gallery("simple"), gallery("star", n=5, spoke_len=2.5),
                gallery("comb_compact", n=6), gallery("comb_noncompact", n=6)]
        for _ in range(20):
            tree = random_tree(rng, max_nodes=300)
            names = [f"p{k}" for k in range(int(rng.integers(0, 6)))]
            docs.append(TreeDocument(tree, dict(zip(names, random_points(rng, tree, len(names))))))
        docs = [doc for doc in docs if doc.tree.n_nodes > 1]  # one node has no edge line
        for doc in docs:
            text = serialize_tree(doc)
            assert parse_tree(text) == doc
            assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert paths == {"loadtxt": 2 * len(docs), "lines": 0}  # two parses a document

    _DATA_LINES = ["node 0", "point q node 1", "point q edge {} {} 0.0", "  node 1 # x"]

    @staticmethod
    def _data_line_among_the_edges(rng, line):
        """A valid edges-first document with ``line`` (formatted with the
        ends of an edge) inserted before its last edge line, and its edge
        block: the lines up to that edge line."""
        text = _block_text(rng, int(rng.integers(3, 30)), [" ", "\t"])
        lines = [ln.lstrip() for ln in text.splitlines()]
        last = max(k for k, ln in enumerate(lines) if ln.startswith("edge"))
        ends = lines[last].split()[1:3]  # an edge of the document
        lines.insert(int(rng.integers(0, last)), line.format(*ends))
        return "\n".join(lines) + "\n", lines[: last + 2]

    @pytest.mark.parametrize("line", _DATA_LINES)
    def test_data_line_among_the_edges_takes_the_filter(self, line, rng):
        # the edge block is the filter: a data line in it fails _edge_rows,
        # and _read_bulk hands the document on to the line reader
        for _ in range(10):
            text, block = self._data_line_among_the_edges(rng, line)
            assert block[-1].startswith("edge") and line.format(*block[-1].split()[1:3]) in block
            assert ingest._edge_rows(block, True) is None
            assert ingest._read_bulk(text) is None

    @pytest.mark.parametrize("line", _DATA_LINES)
    def test_data_line_among_the_edges_goes_to_the_line_reader(self, paths, line, rng):
        # the block pass fails at most once, and the line reader reads the
        # document to the tree the reference reads
        for _ in range(10):
            text, _ = self._data_line_among_the_edges(rng, line)
            before = dict(paths)
            got = _parse_outcome(parse_tree, text)
            assert got == _parse_outcome(_parse_tree_reference, text)
            assert got[0] == len(got[1]) + 1  # a valid document
            assert paths["loadtxt"] - before["loadtxt"] <= 1
            assert paths["lines"] - before["lines"] == 1

    @pytest.mark.parametrize("line", ["node 0", "point q node 1"])
    def test_o_among_the_edges_skips_the_block_pass(self, monkeypatch, paths, line):
        # a node or point line (each holds an "o") before the last edge
        # line: the one loadtxt attempt, over the whole block, fails, and
        # the line reader reads the document in the block pass's stead
        loads, loadtxt = [], np.loadtxt

        def recorded_loadtxt(lines, **kwargs):
            loads.append(list(lines))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorded_loadtxt)
        text = f"edge 0 1 1.0\n{line}\nedge 1 2 2.0\npoint a node 2\n"
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert loads == [["edge 0 1 1.0", line, "edge 1 2 2.0"]]
        assert paths["lines"] == 1

    @pytest.mark.parametrize("line", ["# from the root node", "\t# node 3 hangs here"])
    def test_o_comment_among_the_edges_stays_in_the_block(self, monkeypatch, paths, line):
        # a comment is no data line, whatever it holds: one loadtxt pass
        # over the whole block, and no line reader
        loads, loadtxt = [], np.loadtxt

        def recorded_loadtxt(lines, **kwargs):
            loads.append(list(lines))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorded_loadtxt)
        text = f"edge 0 1 1.0\n{line}\nedge 1 2 2.0\npoint a node 2\n"
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert loads == [["edge 0 1 1.0", line, "edge 1 2 2.0"]]
        assert paths["lines"] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "edge 0 1 1.0\nedgex 1 2 1.0\nedge 1 2 1.0\n",
            "edge 0 1 1.0\nedge 1 2 1.0 # \u00e9\npoint a node 0\n",
            "edge 0 1 1.0\nedge 1 \u01fe 1.0\n",
            "edge 0 1 1.0\nedge\u00a01 2 1.0\n",
            "edge\x00 0 1 1.0\n",
            "edge 0 1 1.0\nedge\x00 1 2 1.0\npoint a node 0\n",
        ],
    )
    def test_documents_the_block_cannot_read_go_to_the_line_reader(self, paths, text):
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert paths["lines"] == 1

    def test_edge_line_after_the_block_goes_to_the_line_reader(self, paths):
        text = "edge 0 1 1.0\npoint a node 0\n  edge 1 2 1.0\n"
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert paths == {"loadtxt": 1, "lines": 1}

    def test_lines_after_the_block_are_numbered_in_the_document(self, paths):
        text = "# c\nedge 0 1 1.0\n\nedge 1 2 1.0\npoint a node 0\npoint b nod 0\n"
        with pytest.raises(TreeParseError) as info:
            parse_tree(text)
        assert (info.value.line, info.value.column) == (6, 1)
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)
        assert paths == {"loadtxt": 2, "lines": 0}


class TestReadAndBuildOnce:
    """Every document is built at most once, and its lines are read a second
    time only when an indented edge line after the edge block escapes the
    loadtxt pass; a block the pass cannot convert goes to the line reader
    with no line read before it."""

    @pytest.mark.parametrize(
        "text, reads",
        [
            ("edge 0 1 1.0\nedge 1 0 2.0\npoint a node 0\n", 1),  # a duplicate edge
            ("edge 0 1 1.0\nedge 1 3 1.0\n", 1),
            ("edge 0 1 1.0\npoint a node 0\n", 1),
            ("node 0\n", 1),
            ("edge 0 9223372036854775808 1.0\n", 1),
            ("edge 0 1 1.0\nedge 1 1000000000 1.0\n", 1),
            ("edge 0 1 1.0\nnode 2\n", 1),
            ("edge 0 1 1.0\nnode -1\n", 1),
            ("edge 0 2 1.0\nedge 2 0 1.0\n", 1),
            ("edge 0 1 1.0\nedge 1 2 -1.0\n", 1),
            ("edge 0 1 1.0\n edge 1 2 1.0\n", 2),
            ("edge 0 1 1.0\nedge\t1 2 1.0\npoint a node 3\n", 1),
            ("edge 0 1 1.0\npoint a edge 0 1 2.0\npoint b nod 0\n", 1),
            ("edgex 0 1 1.0\n", 1),
            ("edge 0 1 1_0.5\n", 1),
            ("edge 0 \u0661 1.0\n", 1),
            ("edge 0 1 1.0\xa0\n", 1),
            ("edge 0 1 1.0\nnode 2\nedge 1 2 1.0\n", 1),  # a node line among the edges
            ("edge 0 1 1.0\n# from the root node\nedge 1 2 1.0\n", 1),
        ],
    )
    def test_read_and_built_at_most_once(self, text, reads, monkeypatch):
        want = _parse_outcome(_parse_tree_reference, text)
        counts = {"reads": 0, "builds": 0}
        read_lines, init = ingest._read_lines, MetricTree.__init__

        def counted_read(*args):
            counts["reads"] += 1
            return read_lines(*args)

        def counted_init(self, *args, **kwargs):
            counts["builds"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ingest, "_read_lines", counted_read)
        monkeypatch.setattr(MetricTree, "__init__", counted_init)
        assert _parse_outcome(parse_tree, text) == want
        assert counts["builds"] <= 1
        assert counts["reads"] == reads


class TestBuildErrorLines:
    """A build error names the line and column of the edge at fault, read
    by the bulk pass and by the line reader alike.  Unless the line reader
    is forced, a document with a data line among its edges goes to it, and
    an edges-first one never does."""

    @pytest.fixture(params=["bulk", "lines"])
    def reader(self, request, monkeypatch):
        if request.param == "lines":
            line_reader_only(monkeypatch)
        else:
            _bulk_only_when_edges_first(monkeypatch)
        return request.param

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("edge 0 1 1.0\nedge 1 2 1.0\nedge 2 1 2.0\n", DuplicateEdge,
             "line 3, column 1: edge (2, 1) appears more than once"),
            ("# c\nedge 0 1 1.0\nedge 1 1 1.0\nnode 2\nedge 1 2 1.0\n", CycleDetected,
             "line 3, column 1: self-loop at node 1"),
            ("edge 0 1 1.0\nedge 1 2 1.0\r\nedge 2 0 1.0 # back\r\n", CycleDetected,
             "line 3, column 1: edge (2, 0) closes a cycle"),
            ("edge 0 1 0.0\n", NonpositiveEdgeLength,
             "line 1, column 1: edge (0, 1) has length 0.0; must be positive and finite"),
            ("point a node 0\nedge 0 1 1.0\nedge 1 2 nan\n", NonpositiveEdgeLength,
             "line 3, column 1: edge (1, 2) has length nan; must be positive and finite"),
        ],
    )
    def test_error_names_its_edge(self, reader, text, error, message):
        with pytest.raises(error) as info:
            parse_tree(text)
        assert type(info.value) is error
        assert str(info.value) == message
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_parse_tree_reference, text)

    def test_error_carries_its_place(self, reader):
        # the line and column were only in the message before, and edge None
        with pytest.raises(DuplicateEdge) as info:
            parse_tree("edge 0 1 1.0\nedge 1 2 1.0\nedge 0 1 1.0\n")
        assert (info.value.line, info.value.column, info.value.edge) == (3, 1, 2)
        with pytest.raises(DuplicateEdge) as info:  # no document, no place
            MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)])
        assert (info.value.line, info.value.column, info.value.edge) == (None, None, 2)

    def test_indented_edge_names_its_first_token(self):
        text = "edge 0 1 1.0\n\t  edge 1 2 1.0\n  edge 2 1 1.0\n"
        with pytest.raises(DuplicateEdge, match=r"^line 3, column 3: edge \(2, 1\)"):
            parse_tree(text)

    def test_missing_edge_names_no_line(self, reader):
        # no edge is at fault, so there is no line to name
        with pytest.raises(Disconnected, match="^3 nodes need 2 edges"):
            parse_tree("node 0\nnode 1\nnode 2\nedge 0 1 1.0\n")

    @pytest.mark.parametrize("fault", ["repeat", "reverse", "loop", "zero", "cycle"])
    def test_random_documents_like_reference(self, reader, fault, rng):
        ascii_seps = [sep for sep in _SEPS if sep.isascii()]
        for _ in range(25):
            n = int(rng.integers(3, 30))
            lines = _doc_lines(rng, n, python_only=reader == "lines")
            edges = [tokens for tokens in lines if tokens[0] == "edge"]
            u, v = edges[int(rng.integers(0, len(edges)))][1:3]
            bad = {"repeat": [u, v, "1.5"], "reverse": [v, u, "1.5"], "loop": [u, u, "1.5"],
                   "zero": [u, v, "0.0"], "cycle": None}[fault]
            if bad is None:  # any two nodes: a repeat if they are adjacent, else a cycle
                a, b = (str(k) for k in rng.permutation(n)[:2])
                bad = [a, b, "0.5"]
            lines.insert(int(rng.integers(0, len(lines) + 1)), ["edge", *bad])
            for edges_first in (False, True):  # as in TestBulkPass
                text = _bulk_text(rng, lines, _SEPS if reader == "lines" else ascii_seps,
                                  edges_first)
                assert _edges_first(text) or not edges_first
                got = _parse_outcome(parse_tree, text)
                assert got == _parse_outcome(_parse_tree_reference, text)
                assert got[0] in (DuplicateEdge, CycleDetected, NonpositiveEdgeLength)
                assert got[1].startswith("line ")

    def test_failed_build_scans_once(self, reader, rng):
        # the one fault scan MetricTree runs names the edge; the line lookup
        # runs none
        edges = [ln for ln in _bench_text(rng, 2000).splitlines() if ln.startswith("edge")]
        text = "\n".join(edges + [edges[0]]) + "\n"
        scan, calls = _build._raise_first_edge_fault.__code__, []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is scan
                       and calls.append(event))
        try:
            with pytest.raises(DuplicateEdge, match="^line 2000, column 1: edge "):
                parse_tree(text)
        finally:
            sys.setprofile(None)
        assert len(calls) == 1

    def test_valid_documents_never_search(self, monkeypatch, rng):
        def fail(*args):
            raise AssertionError("searched for an edge at fault")

        monkeypatch.setattr(ingest, "_edge_error", fail)
        for n in (2, 50, 700):
            assert parse_tree(_bench_text(rng, n)).tree.n_nodes == n


class TestNodeCount:
    """The id check's numpy fast path against its set rule."""

    @given(
        ends=st.lists(st.integers(-2, 12), max_size=14),
        node_ids=st.lists(st.integers(-2, 12), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_counts_like_list(self, ends, node_ids):
        def outcome(ends):
            try:
                return ingest._node_count(ends, node_ids)
            except TreeParseError as exc:
                return str(exc)

        assert outcome(np.array(ends, dtype=np.intp)) == outcome(ends)
