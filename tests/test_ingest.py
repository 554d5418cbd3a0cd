"""Tests for matrix ingestion, recognition, reconstruction, documents, and
the gallery."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrictrees import (
    BadParams,
    DistanceMatrix,
    InvalidDistanceMatrix,
    NotAMetric,
    NotTreeMetric,
    ParameterOutOfRange,
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


class TestReconstruction:
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

    def test_offset_beyond_edge_length(self):
        with pytest.raises(ParameterOutOfRange):
            parse_tree("edge 0 1 1.0\npoint a edge 0 1 1.5\n")

    def test_roundtrip_random_documents(self, rng):
        from metrictrees import TreeDocument

        for _ in range(20):
            tree = random_tree(rng, max_nodes=10)
            pts = {f"p{i}": q for i, q in enumerate(random_points(rng, tree, 4))}
            doc = TreeDocument(tree, pts)
            doc1 = parse_tree(serialize_tree(doc))
            assert doc1 == doc
            assert parse_tree(serialize_tree(doc1)) == doc1


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
