"""Tests for the tree model and geodesic queries.

Oracle notes: segment/median/betweenness assertions on fixtures are frozen
from hand-traced paths; randomized invariants (metric axioms, betweenness
transitivity, segment gluing, ball convexity, four-point) are checked
against direct distance arithmetic on sampled points.
"""

import copy
import gc
import itertools
import json
import math
import pickle
import re
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrictrees import (
    BadParams,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    ForeignPoint,
    MetricTree,
    MetricTreeError,
    NonpositiveEdgeLength,
    ParameterOutOfRange,
    PointArray,
    PreconditionViolation,
    PointSet,
    Tolerance,
    TooFewPoints,
    edge_samples,
    gallery,
    is_metric_segment,
    kappa_probe,
    lifschitz_witness,
    matrix_from_points,
    measure_report,
    min_ball_cover,
    random_point,
    random_points,
    random_tree,
    tree_from_distances,
)

from metrictrees import core
from metrictrees._build import _Columns, _id_type, _root_distances
from metrictrees.ingest import parse_tree
from metrictrees.reports import report_obj

from conftest import line_reader_only, shaped_edges, shaped_tree, star_tips


class TestValidation:
    def test_smallest_tree(self):
        tree = MetricTree(2, [(0, 1, 1.0)])
        assert tree.n_nodes == 2
        assert tree.edge_length(0) == 1.0

    def test_triangle_is_cycle(self):
        with pytest.raises(CycleDetected):
            MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_zero_length_spoke(self):
        with pytest.raises(NonpositiveEdgeLength):
            MetricTree(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 0.0)])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            MetricTree(2, [(0, 0, 1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            MetricTree(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            MetricTree(4, [(0, 1, 1.0), (2, 3, 1.0)])

    @pytest.mark.parametrize("edges, error, index", [
        ([(0, 1, 1.0), (1, 1, 1.0)], CycleDetected, 1),
        ([(0, 1, 1.0), (1, 2)], BadParams, 1),
        ([(0, 7, 1.0), (1, 2, 1.0)], BadParams, 0),
        ([(1, 2, 1.0), (0, 1, 0.0)], NonpositiveEdgeLength, 1),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], DuplicateEdge, 2),
        ([(0, 1, 1.0)], Disconnected, None),
    ])
    def test_error_carries_its_edge_index(self, edges, error, index):
        # the input-order index of the edge the check stopped at
        with pytest.raises(error) as exc:
            MetricTree(3, edges)
        assert exc.value.edge == index

    def test_single_node_tree_is_legal(self):
        tree = MetricTree(1, [])
        p = tree.node_point(0)
        assert tree.distance(p, p) == 0.0

    def test_bad_node_reference(self):
        with pytest.raises(BadParams):
            MetricTree(2, [(0, 5, 1.0)])

    @pytest.mark.parametrize("edge", [
        (0, 1, "x"), (0, 1), (0, None, 1.0),
        (0, 1.7, 1.0), (0, True, 1.0), ("0", 1, 1.0), (0, 1, "1.0"), (0, 1, True), (0, 1, np.True_),
        (0, 1, 1.0, "junk"),
    ])
    def test_malformed_edge_is_bad_params(self, edge):
        # the first three used to escape as ValueError, IndexError and
        # TypeError; the others built the edge (0, 1) of length 1.0
        with pytest.raises(BadParams) as exc:
            MetricTree(2, [edge])
        assert str(exc.value).startswith(f"edge {edge!r} is not a (u, v, length) triple")

    def test_earlier_fault_wins_over_malformed_edge(self):
        with pytest.raises(CycleDetected):
            MetricTree(3, [(1, 1, 1.0), (0, 1)])
        with pytest.raises(BadParams, match="not a"):
            MetricTree(3, [(0, 1, None), (1, 1, 1.0)])
        with pytest.raises(CycleDetected):
            MetricTree(3, [(1, 1, 1.0), (0, 1.5, 1.0)])
        with pytest.raises(BadParams, match="1.5 is not an integer"):
            MetricTree(3, [(0, 1.5, 1.0), (1, 1, 1.0)])

    def test_huge_node_count_fails_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(Disconnected):
                MetricTree(10**6, [(0, 1, 1.0), (1, 2, 1.0)])
            with pytest.raises(DuplicateEdge):
                MetricTree(10**6, [(0, 1, 1.0), (1, 0, 1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_root_distance_that_overflows_sums(self):
        # node 2 lies inf from node 0, and node_distance(2, 2) once read nan
        with pytest.raises(BadParams, match="^node 2 lies inf from node 0"):
            MetricTree(3, [(0, 1, 1e308), (1, 2, 1e308)])
        with pytest.raises(BadParams, match="^node 1 lies"):
            MetricTree(2, [(0, 1, math.nextafter(sys.float_info.max / 4, math.inf))])
        # at the bound every sum of two distances stays finite
        half = sys.float_info.max / 8
        tree = MetricTree(3, [(1, 0, half), (0, 2, half)])
        ends = tree.node_point(1), tree.node_point(2)
        mid = tree.edge_point(0, 2, 0.5 * half)
        assert tree.node_distance(1, 2) == 2 * half
        assert tree.node_distance(2, 2) == 0.0
        assert tree.distance(ends[0], mid) == 1.5 * half
        assert tree.is_between(ends[0], mid, ends[1])


class TestDistance:
    def test_simple_tree_through_branch_point(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.distance(p["A"], p["C"]) == pytest.approx(3.0, abs=1e-12)
        assert t.distance(p["A"], p["D"]) == pytest.approx(3.0, abs=1e-12)
        assert t.distance(p["C"], p["D"]) == pytest.approx(2.0, abs=1e-12)

    def test_identity(self, simple_doc):
        for p in simple_doc.points.values():
            assert simple_doc.tree.distance(p, p) == 0.0

    def test_star_tips_pairwise_two(self, star_doc):
        doc = star_doc(5, 1.0)
        tips = star_tips(doc)
        for i in range(5):
            for j in range(i + 1, 5):
                assert doc.tree.distance(tips[i], tips[j]) == pytest.approx(2.0)

    def test_edge_interior_points(self, simple_doc):
        t = simple_doc.tree
        x = t.edge_point(0, 1, 0.5)
        y = t.edge_point(0, 1, 1.75)
        assert t.distance(x, y) == pytest.approx(1.25)
        z = t.edge_point(1, 2, 0.25)
        assert t.distance(x, z) == pytest.approx(1.5 + 0.25)

    def test_foreign_point(self, simple_doc, star_doc):
        other = star_doc(3)
        with pytest.raises(ForeignPoint):
            simple_doc.tree.distance(
                simple_doc.points["A"], other.points["hub"]
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_nodes=10)
        x, y, z = random_points(rng, tree, 3)
        dxy = tree.distance(x, y)
        assert dxy >= 0.0
        assert (dxy <= tree.tol.abs_eps) == (x == y) or dxy > tree.tol.abs_eps
        assert dxy == pytest.approx(tree.distance(y, x), abs=1e-12)
        assert tree.distance(x, z) <= dxy + tree.distance(y, z) + 1e-9

    def test_zero_distance_iff_equal_canonical(self, simple_doc):
        t = simple_doc.tree
        # offset 2.0 on edge (0,1) of length 2 canonicalizes to node 1
        p = t.edge_point(0, 1, 2.0)
        assert p == t.node_point(1)
        assert t.distance(p, t.node_point(1)) == 0.0


class TestCanonicalization:
    def test_offset_snaps_to_nodes(self, simple_doc):
        t = simple_doc.tree
        assert t.edge_point(0, 1, 0.0) == t.node_point(0)
        assert t.edge_point(0, 1, 1e-12) == t.node_point(0)
        assert t.edge_point(0, 1, 2.0 - 1e-12) == t.node_point(1)

    def test_reversed_orientation_same_point(self, simple_doc):
        t = simple_doc.tree
        assert t.edge_point(0, 1, 0.5) == t.edge_point(1, 0, 1.5)

    def test_offset_out_of_range(self, simple_doc):
        with pytest.raises(ParameterOutOfRange):
            simple_doc.tree.edge_point(0, 1, 2.5)
        with pytest.raises(ParameterOutOfRange):
            simple_doc.tree.edge_point(0, 1, -0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterOutOfRange):
                simple_doc.tree.edge_point(0, 1, bad)

    def test_no_such_edge(self, simple_doc):
        # ids out of range or not integers are no edge either, never an
        # IndexError or TypeError; -1 must not wrap around to the last node
        for u, v in [(0, 2), (0, -1), (-1, 0), (1, -1), (0, 99), ("a", 1), (1, None),
                     (True, 0), (0, 1.5), (2.0, 1), (np.True_, 0)]:
            with pytest.raises(BadParams, match=f"no edge between nodes {u} and {v}"):
                simple_doc.tree.edge_point(u, v, 0.5)


    def test_node_ids(self, simple_doc):
        t = simple_doc.tree
        for bad in (1.5, 2.0, True, False, np.True_, "1", None, -1, 4):
            with pytest.raises(BadParams, match="does not exist"):
                t.node_point(bad)
        p = t.node_point(np.int64(2))
        assert type(p.node) is int and p == t.node_point(2)
        assert json.dumps(p.record()) == '{"kind": "node", "node": 2}'
        q = t.edge_point(np.int64(1), np.int64(0), 0.5)
        assert q == t.edge_point(1, 0, 0.5)
        assert json.dumps(q.record()) == '{"kind": "edge", "u": 0, "v": 1, "offset": 1.5}'


class TestIdentity:
    """Equality, structure and the reprs of points, point arrays, trees and
    segments."""

    def test_point_equals_no_other_type(self, simple_doc):
        p = simple_doc.points["A"]
        assert p.__eq__((0, None, None, 0.0)) is NotImplemented
        assert p != "A" and p != 0

    def test_reprs(self, simple_doc):
        t = simple_doc.tree
        p = t.edge_point(1, 0, 0.5)
        assert repr(p) == "TreePoint(edge=(0, 1), offset=1.5)"
        assert repr(PointArray.of(t, [p, t.node_point(3)])) == "PointArray(2 points)"
        assert repr(t) == "MetricTree(n_nodes=4, n_edges=3)"
        seg = t.segment(t.node_point(0), t.node_point(2))
        assert repr(seg) == "Segment(TreePoint(node=0) -> TreePoint(node=2), chain=(1,), length=3.0)"

    def test_same_structure_needs_same_node_count(self):
        path = MetricTree(2, [(0, 1, 1.0)])
        assert path.same_structure(MetricTree(2, [(1, 0, 1.0)]))
        assert not path.same_structure(MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)]))


class TestBetweenness:
    def test_collinear_path(self):
        t = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        n = [t.node_point(i) for i in range(3)]
        assert t.is_between(n[0], n[1], n[2])

    def test_degenerate_middle(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.is_between(p["A"], p["A"], p["C"])

    def test_simple_tree_cases(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.is_between(p["A"], p["B"], p["C"])
        assert not t.is_between(p["C"], p["A"], p["D"])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_transitivity(self, seed):
        """If b and c lie in order on a geodesic from a to d, every
        sub-triple is in order too."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_nodes=10)
        a, d = random_points(rng, tree, 2)
        length = tree.distance(a, d)
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2) * length)
        b = tree.point_at(a, d, t1)
        c = tree.point_at(a, d, t2)
        assert tree.is_between(a, b, c)
        assert tree.is_between(a, c, d)
        assert tree.is_between(a, b, d)
        assert tree.is_between(b, c, d)


class TestSegment:
    def test_degenerate(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        s = t.segment(p["A"], p["A"])
        assert s.total_length == 0.0
        assert s.node_chain == ()

    def test_simple_tree_chain(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        s = t.segment(p["C"], p["D"])
        assert s.node_chain == (1,)
        assert s.total_length == pytest.approx(2.0)

    def test_star_through_hub(self, star_doc):
        doc = star_doc(3)
        t = doc.tree
        s = t.segment(doc.points["tip1"], doc.points["tip2"])
        assert s.node_chain == (0,)
        assert s.total_length == pytest.approx(2.0)

    def test_membership_matches_betweenness(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=9)
            x, y, p = random_points(rng, tree, 3)
            s = tree.segment(x, y)
            assert s.contains(p) == tree.is_between(x, p, y)

    def test_parameterization_is_isometry(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=9)
            x, y = random_points(rng, tree, 2)
            s = tree.segment(x, y)
            ts = rng.uniform(0.0, 1.0, size=4) * s.total_length
            for t1 in ts:
                for t2 in ts:
                    d = tree.distance(s.point_at(t1), s.point_at(t2))
                    assert d == pytest.approx(abs(t1 - t2), abs=1e-9)

    def test_leg_sum_matches_distance(self, rng):
        """Summing leg lengths along the path must reproduce the distance
        computed from root depths; checks exit-node and anchor choices."""
        for _ in range(60):
            tree = random_tree(rng, max_nodes=10)
            x, y = random_points(rng, tree, 2)
            _pts, cum, _e, _c = _reference_stations(tree.segment(x, y))
            assert cum[-1] == pytest.approx(tree.distance(x, y), abs=1e-12)

    def test_gluing_at_interior_point(self, rng):
        """Segments [a,p] and [p,b] glue to [a,b] exactly when p is between."""
        for _ in range(30):
            tree = random_tree(rng, max_nodes=9)
            a, b = random_points(rng, tree, 2)
            p = tree.point_at(a, b, float(rng.uniform(0, 1)) * tree.distance(a, b))
            left = tree.segment(a, p)
            right = tree.segment(p, b)
            whole = tree.segment(a, b)
            assert left.total_length + right.total_length == pytest.approx(
                whole.total_length, abs=1e-9
            )
            for q in left.sample(4) + right.sample(4):
                assert whole.contains(q)
            for q in whole.sample(8):
                assert left.contains(q) or right.contains(q)

    def test_sample_of_a_long_segment_stays_finite(self):
        # arc lengths length * j / k overflowed to inf for lengths near the
        # largest float
        t = MetricTree(2, [(0, 1, 4e306)])
        pts = t.segment(t.node_point(0), t.node_point(1)).sample(64)
        assert len(pts) == 65
        assert (pts[0], pts[-1]) == (t.node_point(0), t.node_point(1))


class TestPointAt:
    def test_endpoints(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.point_at(p["A"], p["C"], 0.0) == p["A"]
        assert t.point_at(p["A"], p["C"], 3.0) == p["C"]

    def test_node_hit(self):
        t = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert t.point_at(t.node_point(0), t.node_point(2), 1.0) == t.node_point(1)

    def test_edge_interior(self):
        t = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        p = t.point_at(t.node_point(0), t.node_point(2), 0.5)
        assert p.record() == {"kind": "edge", "u": 0, "v": 1, "offset": 0.5}

    def test_out_of_range(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        with pytest.raises(ParameterOutOfRange):
            t.point_at(p["A"], p["C"], 3.5)
        with pytest.raises(ParameterOutOfRange):
            t.point_at(p["A"], p["C"], -0.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterOutOfRange):
                t.point_at(p["A"], p["C"], bad)
            with pytest.raises(ParameterOutOfRange):
                t.segment(p["A"], p["B"]).point_at(bad)

    def test_postcondition(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=9)
            x, y = random_points(rng, tree, 2)
            t = float(rng.uniform(0, 1)) * tree.distance(x, y)
            p = tree.point_at(x, y, t)
            assert tree.distance(x, p) == pytest.approx(t, abs=1e-9)
            assert tree.is_between(x, p, y)


class TestMidpoint:
    def test_degenerate(self, simple_doc):
        p = simple_doc.points["A"]
        assert simple_doc.tree.midpoint(p, p) == p

    def test_star_tips_meet_at_hub(self, star_doc):
        doc = star_doc(4)
        assert doc.tree.midpoint(doc.points["tip1"], doc.points["tip3"]) == doc.points["hub"]

    def test_simple_tree(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        m = t.midpoint(p["A"], p["C"])
        assert m.record() == {"kind": "edge", "u": 0, "v": 1, "offset": 1.5}

    def test_equidistance(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=9)
            x, y = random_points(rng, tree, 2)
            m = tree.midpoint(x, y)
            half = 0.5 * tree.distance(x, y)
            assert tree.distance(x, m) == pytest.approx(half, abs=1e-9)
            assert tree.distance(y, m) == pytest.approx(half, abs=1e-9)


class TestMedian:
    def test_degenerate(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.median(p["A"], p["C"], p["A"]) == p["A"]
        assert t.median(p["A"], p["A"], p["C"]) == p["A"]

    def test_star_tips(self, star_doc):
        doc = star_doc(3)
        tips = star_tips(doc)
        assert doc.tree.median(*tips) == doc.points["hub"]

    def test_simple_tree_branch_point(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.median(p["A"], p["C"], p["D"]) == p["B"]

    def test_characterization(self, rng):
        """w lies on [x,y]; [x,z] ∩ [y,z] = [w,z]; [x,y] ∩ [w,z] = {w}."""
        for _ in range(60):
            tree = random_tree(rng, max_nodes=9)
            x, y, z = random_points(rng, tree, 3)
            w = tree.median(x, y, z)
            assert tree.is_between(x, w, y)
            inter = tree.segment(x, z).intersect(tree.segment(y, z))
            assert inter is not None
            wz = tree.segment(w, z)
            assert tree.distance(inter.a, inter.b) == pytest.approx(
                wz.total_length, abs=1e-9
            )
            assert wz.contains(inter.a) and wz.contains(inter.b)
            assert inter.contains(w) and inter.contains(z)
            pinch = tree.segment(x, y).intersect(wz)
            assert pinch is not None
            assert pinch.total_length == pytest.approx(0.0, abs=1e-9)
            assert tree.distance(pinch.a, w) == pytest.approx(0.0, abs=1e-9)

    def test_permutation_invariance(self, rng):
        for _ in range(30):
            tree = random_tree(rng, max_nodes=9)
            x, y, z = random_points(rng, tree, 3)
            m1 = tree.median(x, y, z)
            m2 = tree.median(y, x, z)
            assert tree.distance(m1, m2) == pytest.approx(0.0, abs=1e-9)


class TestSegmentIntersection:
    def test_idempotence(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        s = t.segment(p["A"], p["C"])
        inter = s.intersect(s)
        assert inter.total_length == pytest.approx(s.total_length)

    def test_shared_prefix(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        inter = t.segment(p["A"], p["C"]).intersect(t.segment(p["A"], p["D"]))
        assert inter is not None
        ab = t.segment(p["A"], p["B"])
        assert inter.total_length == pytest.approx(ab.total_length)
        assert {inter.a, inter.b} == {p["A"], p["B"]}

    def test_disjoint_subpaths(self):
        t = MetricTree(5, [(i, i + 1, 1.0) for i in range(4)])
        n = [t.node_point(i) for i in range(5)]
        assert t.segment(n[0], n[1]).intersect(t.segment(n[3], n[4])) is None

    def test_single_point_touch(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        inter = t.segment(p["A"], p["B"]).intersect(t.segment(p["B"], p["C"]))
        assert inter is not None
        assert inter.total_length == pytest.approx(0.0, abs=1e-12)
        assert inter.a == p["B"]

    def test_segments_of_two_trees(self, simple_doc):
        t = simple_doc.tree
        other = MetricTree(2, [(0, 1, 1.0)])
        with pytest.raises(ForeignPoint, match="^segments belong to different trees$"):
            t.segment(t.node_point(0), t.node_point(2)).intersect(
                other.segment(other.node_point(0), other.node_point(1)))


class TestArcCriterion:
    def test_two_points(self, simple_doc):
        p = simple_doc.points
        assert is_metric_segment([p["A"], p["C"]])

    def test_collinear_in_order(self):
        t = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert is_metric_segment([t.node_point(i) for i in range(3)])

    def test_star_detour_fails(self, star_doc):
        doc = star_doc(3)
        t, p = doc.tree, doc.points
        pts = [p["tip1"], p["hub"], p["tip2"], p["tip3"]]
        assert not is_metric_segment(pts)

    def test_point_outside_span_fails(self):
        t = MetricTree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        n = [t.node_point(i) for i in range(4)]
        # n0 lies beyond the first endpoint n1, so the sample is not a
        # subset of the geodesic [n1, n3]
        assert not is_metric_segment([n[1], n[0], n[3]])
        # scrambled order of on-segment points still passes: the criterion
        # constrains the sample as a set
        assert is_metric_segment([n[0], n[2], n[1], n[3]])

    def test_too_few(self, simple_doc):
        with pytest.raises(TooFewPoints):
            is_metric_segment([simple_doc.points["A"]])

    def test_points_of_two_trees(self, simple_doc):
        other = MetricTree(2, [(0, 1, 1.0)]).node_point(1)
        with pytest.raises(ForeignPoint, match="^points belong to different trees$"):
            is_metric_segment([simple_doc.points["A"], other, simple_doc.points["C"]])

    def test_sampled_geodesics_pass(self, rng):
        for _ in range(20):
            tree = random_tree(rng, max_nodes=9)
            x, y = random_points(rng, tree, 2)
            assert is_metric_segment(tree.segment(x, y).sample(6))


class TestBallGeometry:
    def test_segment_convexity_of_balls(self, rng):
        """Points within r of a center keep their whole geodesic within r."""
        for _ in range(60):
            tree = random_tree(rng, max_nodes=9)
            a, x, y = random_points(rng, tree, 3)
            r = max(tree.distance(a, x), tree.distance(a, y)) + float(rng.uniform(0.05, 1.0))
            for p in tree.segment(x, y).sample(6):
                assert tree.distance(p, a) < r

    def test_midpoint_ball_containment(self, rng):
        for _ in range(60):
            tree = random_tree(rng, max_nodes=9)
            a, x, y = random_points(rng, tree, 3)
            r = max(tree.distance(a, x), tree.distance(a, y)) + float(rng.uniform(0.05, 1.0))
            m = tree.midpoint(x, y)
            half = 0.5 * tree.distance(x, y)
            for _k in range(6):
                p = random_point(rng, tree)
                if tree.distance(p, m) <= half:
                    assert tree.distance(p, a) < r

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_four_point_condition(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_nodes=10)
        pts = random_points(rng, tree, 4)
        d = lambda i, j: tree.distance(pts[i], pts[j])
        sums = sorted([d(0, 1) + d(2, 3), d(0, 2) + d(1, 3), d(0, 3) + d(1, 2)])
        assert sums[2] - sums[1] <= 1e-9 * max(1.0, sums[2])


class TestConcurrencySafety:
    def test_parallel_reads(self, simple_doc):
        """Queries share no mutable state beyond the lazily built anchor
        arrays, which the first calls race to build; hammer them from
        threads."""
        import concurrent.futures
        import sys

        t, p = simple_doc.tree, simple_doc.points
        sample = edge_samples(t, 5)  # builds the tree's arrays, not the sample's
        fresh = gallery("simple")  # no point arrays built on it yet
        expected = [t.distance(p["D"], q) for q in sample]

        def work(_):
            assert t.distance(p["A"], p["C"]) == pytest.approx(3.0)
            assert t.median(p["A"], p["C"], p["D"]) == p["B"]
            assert t.distances(p["D"], sample).tolist() == expected
            q = fresh.points
            assert fresh.tree.distances(q["A"], [q["C"], q["D"]]).tolist() == [3.0, 3.0]
            assert fresh.tree.edges == t.edges
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                assert all(pool.map(work, range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)


def test_tolerance_validation():
    with pytest.raises(BadParams):
        Tolerance(-1e-9, 1e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(BadParams):
            Tolerance(bad, 1e-9)
        with pytest.raises(BadParams):
            Tolerance(1e-9, bad)
    tol = Tolerance(1e-6, 1e-9)
    assert tol.close(1.0, 1.0 + 5e-7)
    assert not tol.close(1.0, 1.0 + 5e-6)


def test_tolerance_beyond_every_float_refused():
    # accepted before, and every comparison then raised OverflowError
    for args in ((10**400, 0.0), (0.0, 10**400), (-(10**400), 0.0)):
        with pytest.raises(BadParams, match=f"^{re.escape(_RULES[1])}$"):
            Tolerance(*args)
    tol = Tolerance(sys.float_info.max, 0)
    assert tol.leq(1.0, 2.0) and tol.close(0.0, 1e300)
    assert MetricTree(2, [(0, 1, 1.0)], tol=Tolerance(10**300, 0.0)).n_nodes == 2


def test_leq_array_matches_scalar(rng):
    tol = Tolerance(1e-6, 1e-3)
    for b in (0.0, 1e-7, 2.0, 5000.0):
        # the slack at b is max(1e-6, 1e-3 * b): probe both sides of it
        a = b + np.concatenate((
            [-1.0, 0.0, 9e-7, 1.1e-6, 1.9e-3 * b, 2.1e-3 * b, 1e4],
            rng.uniform(-3e-3, 3e-3, 200) * max(b, 1e-3),
        ))
        assert tol.leq_array(a, b).tolist() == [tol.leq(float(x), b) for x in a]


def _edge_samples_reference(tree, per_edge):
    pts = [tree.node_point(i) for i in range(tree.n_nodes)]
    for u, v, length in tree.edges:
        for j in range(1, per_edge + 1):
            pts.append(tree.edge_point(u, v, length * j / (per_edge + 1)))
    return pts


def _witness_reference(tree, x, y, r, eps, test_points):
    """The sampled check ``lifschitz_witness`` replaced, as a scalar loop
    over test points: (applicable, failures)."""
    z = tree.point_at(x, y, eps * r)
    a, b, tol = 1.0 + eps, 2.0 - 2.0 * eps, tree.tol
    applicable, failures = 0, []
    for w in test_points:
        if tol.leq(tree.distance(w, x), a * r) and tol.leq(tree.distance(w, y), b * r):
            applicable += 1
            if not tol.leq(tree.distance(w, z), r):
                failures.append(w)
    return applicable, failures


def _assert_span_bits(tree, pts):
    """``_distance_matrix``, every span row and the depths equal the scalar
    ``distance`` by bits: ``array_equal`` would take -0.0 for 0.0."""
    k = len(pts)
    expected = np.array([[tree.distance(p, q) for q in pts] for p in pts]).reshape(k, k)
    got = tree._distance_matrix(pts)
    assert got.dtype == np.float64 and got.shape == (k, k)
    assert got.tobytes() == expected.tobytes()
    arr = PointArray.of(tree, pts)
    for i in range(k):
        assert arr._span_rows([i])[0].tobytes() == expected[i].tobytes()
    assert arr._span_rows(list(range(k))[::-1]).tobytes() == expected[::-1].tobytes()
    root = tree.node_point(0)
    depths = np.array([tree.distance(p, root) for p in pts], dtype=np.float64)
    assert arr._depths().tobytes() == depths.tobytes()


def _unique_span(arr):
    """``PointArray._span`` as it was built by ``np.unique``, kept as the
    reference for the marked slots."""
    tree = arr.tree
    a1, c1, a2, c2 = arr._anchors()
    at, slot = np.unique(tree._tin[np.concatenate((a1, a2))], return_inverse=True)
    bounds = np.full(len(at) + 1, np.inf)
    if len(at) > 1:
        bounds[1:-1] = np.minimum.reduceat(tree._parent_rd[: at[-1] + 1], at[:-1] + 1)
    rd = tree._root_dist_arr[tree._preorder[at]]
    return slot.reshape(2, -1), np.array((c1, c2)), rd, bounds


class TestDistancesKernel:
    """``distances``, span rows, depths and ``_distance_matrix`` against the
    scalar ``distance`` they must equal bit for bit, in either order of the
    two points."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar", "star"]),
        n=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_scalar_distance(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        tree = shaped_tree(rng, shape, n)
        # node 0 and the last preorder position: the two ends of the running
        # minima that node rows take outward from their source
        ends = [tree.node_point(0), tree.node_point(int(tree._preorder[-1]))]
        sources = random_points(rng, tree, 6) + [tree.node_point(int(rng.integers(0, n)))] + ends
        targets = random_points(rng, tree, 30) + list(edge_samples(tree, 2))
        for p in sources:
            if p.edge is not None:  # pairs on one edge take the direct branch
                u, v = tree.edge_nodes(p.edge)
                length = tree.edge_length(p.edge)
                targets += [tree.edge_point(u, v, float(x)) for x in rng.uniform(0, length, 3)]
        for p in sources:
            expected = np.array([tree.distance(p, q) for q in targets])
            got = tree.distances(p, targets)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)
            assert np.array_equal(got, [tree.distance(q, p) for q in targets])
            assert np.array_equal(tree.distances(p, PointArray.of(tree, targets)), expected)
        _assert_span_bits(tree, sources + targets[:12] + sources[:3])  # duplicates included

    @pytest.mark.parametrize("shape", ["random", "path", "caterpillar", "star"])
    def test_span_rows_on_large_trees(self, shape):
        rng = np.random.default_rng(["random", "path", "caterpillar", "star"].index(shape))
        for n in (200, 900, 2000):
            tree = shaped_tree(rng, shape, n)
            pts = random_points(rng, tree, 30)
            pts += [tree.node_point(int(v)) for v in rng.integers(0, n, 6)]
            _assert_span_bits(tree, [pts[int(j)] for j in rng.permutation(len(pts))])

    def test_shared_anchors(self):
        """Many points on one edge, its ends as node points, points on the
        edges next to it, and duplicates: slots shared by many anchors."""
        rng = np.random.default_rng(8)
        for shape in ("random", "path", "caterpillar", "star"):
            for n in (2, 3, 12, 300):
                tree = shaped_tree(rng, shape, n)
                e = int(rng.integers(0, n - 1))
                u, v = tree.edge_nodes(e)
                length = tree.edge_length(e)
                pts = [tree.edge_point(u, v, float(x)) for x in rng.uniform(0, length, 8)]
                pts += [tree.node_point(u), tree.node_point(v), tree.edge_point(v, u, 0.5 * length)]
                for w in (u, v):
                    pts += [tree.edge_point(w, x, 0.25 * tree.edge_length(f))
                            for x, f in tree.neighbors(w)]
                pts += [pts[int(j)] for j in rng.integers(0, len(pts), 6)]
                _assert_span_bits(tree, [pts[int(j)] for j in rng.permutation(len(pts))])

    def test_span_index_like_unique(self):
        """The span index marks the used preorder positions; its slots,
        costs, root distances and bounds equal, by bytes and type, those of
        the ``np.unique`` and ``[]`` gathers it replaced."""
        rng = np.random.default_rng(11)
        for shape in ("random", "path", "caterpillar", "star"):
            for n in (1, 2, 40, 900):
                tree = shaped_tree(rng, shape, n)
                for k in (1, 5, 48):
                    pts = random_points(rng, tree, k)
                    pts += [tree.node_point(int(v)) for v in rng.integers(0, n, 3)]
                    got = PointArray.of(tree, pts)._span()
                    expected = _unique_span(PointArray.of(tree, pts))
                    for a, b in zip(got, expected):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()

    def test_small_sets(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        for pts in ([], [p["A"]], [p["C"], p["C"]], [t.edge_point(1, 2, 0.5)]):
            _assert_span_bits(t, pts)
        lone = MetricTree(1, [])
        _assert_span_bits(lone, [lone.node_point(0)] * 3)
        assert lone._distance_matrix([]).shape == (0, 0)

    def test_matrix_makes_no_row_pass(self, monkeypatch):
        """``_distance_matrix`` reads the span index: no ``distances`` row and
        no O(n) ``_node_distances`` pass."""
        rng = np.random.default_rng(9)
        tree = shaped_tree(rng, "random", 60)
        pts = random_points(rng, tree, 20) + [tree.node_point(3)]

        def refuse(*args):
            raise AssertionError("row pass")

        monkeypatch.setattr(MetricTree, "distances", refuse)
        monkeypatch.setattr(MetricTree, "_node_distances", refuse)
        tree._distance_matrix(PointArray.of(tree, pts))
        tree._distance_matrix(pts)

    def test_parent_root_distances(self):
        """``_parent_rd`` holds, per preorder position, the root distance of
        the parent of the node there, and +inf at the root."""
        rng = np.random.default_rng(10)
        for shape in ("random", "path", "star"):
            for n in (1, 2, 40):
                tree = shaped_tree(rng, shape, n)
                expected = [math.inf] + [tree._root_dist[tree._parent[v]]
                                         for v in tree._preorder[1:].tolist()]
                assert tree._parent_rd.tolist() == expected

    def test_empty_targets(self, simple_doc):
        t = simple_doc.tree
        assert t.distances(simple_doc.points["A"], []).shape == (0,)
        assert t._distance_matrix([]).shape == (0, 0)

    def test_foreign_point(self, simple_doc, star_doc):
        t, p = simple_doc.tree, simple_doc.points["A"]
        other = star_doc(3)
        with pytest.raises(ForeignPoint):
            t.distances(other.points["hub"], [p])
        with pytest.raises(ForeignPoint):
            t.distances(p, [p, other.points["hub"]])
        with pytest.raises(ForeignPoint):
            t.distances(p, edge_samples(other.tree, 2))


class TestEdgeSamples:
    def test_equals_list_reference(self, rng):
        trees = [random_tree(rng, max_nodes=12) for _ in range(20)]
        # edges near abs_eps long: interior offsets snap to the end nodes
        trees.append(MetricTree(3, [(0, 1, 1.0), (2, 1, 3e-9)]))
        for tree in trees:
            for per_edge in (0, 1, 3, 7):
                sample = edge_samples(tree, per_edge)
                expected = _edge_samples_reference(tree, per_edge)
                assert list(sample) == expected
                assert all(type(p.offset) is float for p in sample)
                assert len(sample) == len(expected)
                if expected:
                    assert sample[-1] == expected[-1]
                    assert list(sample[1::2]) == expected[1::2]

    @pytest.mark.parametrize("bad", [1.5, 2.0, -2, -1, True, False, None, "2"])
    def test_count_is_a_nonnegative_integer(self, simple_doc, bad):
        # 1.5 used to space points by 1/2.5, and -2 to return the nodes alone
        with pytest.raises(BadParams, match="per_edge must be an integer >= 0"):
            edge_samples(simple_doc.tree, bad)
        assert list(edge_samples(simple_doc.tree, np.int64(2))) == list(edge_samples(simple_doc.tree, 2))

    def test_read_only(self, simple_doc):
        sample = edge_samples(simple_doc.tree, 2)
        with pytest.raises(ValueError):
            sample.offset[0] = 1.0


class TestWitnessScan:
    """The exact ``lifschitz_witness`` against the sampled oracle it replaced.

    The exact check covers every point of the tree, so a case in which the
    oracle finds a failing test point fails the exact check too; a failure
    between the test points fails only the exact check.
    """

    def _cases(self, rng):
        for _ in range(40):
            tree = shaped_tree(rng, str(rng.choice(["random", "path", "caterpillar"])), 12)
            x, y = random_points(rng, tree, 2)
            d = tree.distance(x, y)
            if d > 1e-9:
                r = float(rng.uniform(0.05, 0.95)) * d
                yield tree, x, y, r, float(rng.uniform(0.05, 0.95))

    def test_verdicts_match_scalar_loop(self, rng):
        for tree, x, y, r, eps in self._cases(rng):
            pts = random_points(rng, tree, 20) + list(edge_samples(tree, 3))
            _w, ver = lifschitz_witness(tree, x, y, r, eps)
            applicable, failures = _witness_reference(tree, x, y, r, eps, pts)
            assert failures == [] and ver.passed
            assert ver.checked == tree.n_nodes - 1
            assert ver.applicable >= (applicable > 0)

    def test_failures_match_scalar_loop(self, rng, monkeypatch):
        # a wrong center (the far end y) makes points fail, so that the
        # implication is tested on failing cases too
        monkeypatch.setattr(MetricTree, "point_at", lambda self, x, y, t: y)
        seen = 0
        for tree, x, y, r, eps in self._cases(rng):
            _w, ver = lifschitz_witness(tree, x, y, r, eps)
            _applicable, failures = _witness_reference(tree, x, y, r, eps, edge_samples(tree, 3))
            if failures:
                seen += 1
                assert not ver.passed
            assert all(tree.distance(p, y) > r for p in ver.failures)
        assert seen > 0

    def test_failure_between_test_points(self, monkeypatch):
        # B(x; 7.5) and B(y; 5) meet in the coordinates [5, 7.5]; seen from a
        # wrong center at 1.5, only (6.5, 7.5] lies farther than r = 5, strictly
        # between the test points at 6 and 8 that edge_samples(tree, 4) places
        tree = MetricTree(2, [(0, 1, 10.0)])
        x, y = tree.node_point(0), tree.node_point(1)
        wrong = tree.edge_point(0, 1, 1.5)
        monkeypatch.setattr(MetricTree, "point_at", lambda self, p, q, t: wrong)
        _w, ver = lifschitz_witness(tree, x, y, 5.0, 0.5)
        assert (ver.checked, ver.applicable) == (1, 1)
        assert ver.failures == (tree.edge_point(0, 1, 7.5),)
        assert _witness_reference(tree, x, y, 5.0, 0.5, edge_samples(tree, 4)) == (1, [])


class TestBallOnEdges:
    """``MetricTree._ball_on_edges`` against membership read off distances."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        n=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_intervals_hold_the_dense_sample(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        tree = shaped_tree(rng, shape, n)
        centers = [tree.node_point(int(rng.integers(0, n)))] + random_points(rng, tree, 3)
        pts = edge_samples(tree, 40)
        for c in centers:
            for rho in (0.0, *rng.uniform(0.0, 4.0, 2)):
                lo, hi = tree._ball_on_edges(c, float(rho))
                assert lo.shape == hi.shape == (n - 1,)
                slack = tree.tol.slack(rho)
                for p, d in zip(pts, tree.distances(c, pts)):
                    if abs(d - rho) <= slack:
                        continue
                    if p.node is None:
                        on_edges = [(p.edge, p.offset)]
                    else:
                        on_edges = [(e, 0.0 if tree.edge_nodes(e)[0] == p.node
                                     else tree.edge_length(e))
                                    for _nbr, e in tree.neighbors(p.node)]
                    for e, coord in on_edges:
                        assert (lo[e] <= coord <= hi[e]) == (d <= rho)


def _reference_chain(tree, x, y):
    """The nodes strictly between x and y as ``segment`` listed them before:
    the path between the exit nodes of x and y, from their lowest common
    ancestor, without the endpoints that are nodes."""
    if x == y or (x.edge is not None and x.edge == y.edge):
        return ()

    def exit_node(p, q):
        if p.node is not None:
            return p.node
        u, v = tree.edge_nodes(p.edge)
        du = p.offset + tree.distance(tree.node_point(u), q)
        dv = (tree.edge_length(p.edge) - p.offset) + tree.distance(tree.node_point(v), q)
        return u if du <= dv else v

    u, v = exit_node(x, y), exit_node(y, x)
    w = _reference_lca(tree, u, v)
    up, down = [u], [v]
    while up[-1] != w:
        up.append(tree._parent[up[-1]])
    while down[-1] != w:
        down.append(tree._parent[down[-1]])
    path = up + down[-2::-1]
    return tuple(path[x.node is not None : len(path) - (y.node is not None)])


def _reference_stations(seg):
    """The stations ``Segment`` kept before: a ``TreePoint`` per path node,
    each leg measured as the gap of two coordinates on their shared edge."""
    tree = seg.tree

    def shared_edge(s, t):
        if s.edge is not None:
            return s.edge
        if t.edge is not None:
            return t.edge
        return next(e for w, e in tree.neighbors(s.node) if w == t.node)

    def coord(p, e):
        if p.edge is not None:
            return p.offset
        return 0.0 if p.node == tree.edge_nodes(e)[0] else tree.edge_length(e)

    pts = [seg.a, *map(tree.node_point, _reference_chain(tree, seg.a, seg.b)), seg.b]
    cum = [0.0]
    for s, t in zip(pts, pts[1:]):
        leg = 0.0 if s == t else abs(coord(s, shared_edge(s, t)) - coord(t, shared_edge(s, t)))
        cum.append(cum[-1] + leg)
    return pts, cum, shared_edge, coord


def _reference_point_at(seg, t):
    """``Segment.point_at`` over the reference stations."""
    tree = seg.tree
    slack = tree.tol.slack(max(seg.total_length, abs(t)))
    if not (math.isfinite(t) and -slack <= t <= seg.total_length + slack):
        raise ParameterOutOfRange("out of range")
    t = min(max(t, 0.0), seg.total_length)
    if t <= 0.0:
        return seg.a
    if t >= seg.total_length:
        return seg.b
    pts, cum, shared_edge, coord = _reference_stations(seg)
    i = min(bisect_right(cum, t) - 1, len(pts) - 2)
    if t == cum[i]:
        return pts[i]
    if t == cum[i + 1]:
        return pts[i + 1]
    e = shared_edge(pts[i], pts[i + 1])
    cs, ct = coord(pts[i], e), coord(pts[i + 1], e)
    delta = t - cum[i]
    return tree._edge_point_at(e, cs + delta if ct > cs else cs - delta)


class TestStationParity:
    """The walk behind every arc-length query against the chain and the
    ``TreePoint`` stations that ``Segment`` built before."""

    def _pairs(self, rng, tree):
        pts = random_points(rng, tree, 8) + [tree.node_point(int(rng.integers(tree.n_nodes)))]
        pairs = [(x, y) for x in pts for y in pts]
        for u, v, length in tree.edges[:4]:  # same edge, and an edge's own ends
            a, b = sorted(map(float, rng.uniform(0, length, 2)))
            pairs += [
                (tree.edge_point(u, v, a), tree.edge_point(u, v, b)),
                (tree.node_point(u), tree.edge_point(u, v, b)),
                (tree.edge_point(u, v, a), tree.node_point(u)),
                (tree.node_point(u), tree.node_point(v)),
            ]
        return pairs

    def _check(self, rng, tree):
        zs = random_points(rng, tree, 2)
        for x, y in self._pairs(rng, tree):
            seg = tree.segment(x, y)
            assert seg.node_chain == _reference_chain(tree, x, y)
            _pts, cum, _e, _c = _reference_stations(seg)
            total = seg.total_length
            # every station, points just off them, leg midpoints, random
            # lengths, and the stretch between cum[-1] and total_length
            ts = [*cum, *np.nextafter(cum, np.inf), *np.nextafter(cum, -np.inf),
                  *((np.array(cum[1:]) + cum[:-1]) / 2), *rng.uniform(0, total, 5),
                  0.0, total, min(cum[-1], total), max(cum[-1], total)]
            for t in ts:
                t = float(t)
                try:
                    want = repr(_reference_point_at(seg, t).record())
                except ParameterOutOfRange:
                    with pytest.raises(ParameterOutOfRange):
                        seg.point_at(t)
                    with pytest.raises(ParameterOutOfRange):
                        tree.point_at(x, y, t)
                    continue
                assert repr(seg.point_at(t).record()) == want
                assert repr(tree.point_at(x, y, t).record()) == want
            want = _reference_point_at(seg, 0.5 * total)
            assert repr(tree.midpoint(x, y).record()) == repr(want.record())
            for z in (x, y, *zs):
                t = 0.5 * (total + tree.distance(x, z) - tree.distance(y, z))
                want = _reference_point_at(seg, min(max(t, 0.0), total))
                assert repr(tree.median(x, y, z).record()) == repr(want.record())

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        n=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_at_equals_reference(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        self._check(rng, shaped_tree(rng, shape, n))

    def test_ties_and_snapping(self, rng):
        # a leg too short to move the sum (two equal stations), and an edge
        # short enough that its interior points snap to its ends
        ties = MetricTree(5, [(0, 1, 1e3), (1, 2, 1e-14), (3, 2, 1.0), (3, 4, 2.0)])
        _pts, cum, _e, _c = _reference_stations(ties.segment(ties.node_point(0), ties.node_point(4)))
        assert cum[1] == cum[2]
        snaps = MetricTree(5, [(0, 1, 1.0), (2, 1, 3e-9), (2, 3, 1.0), (3, 4, 4e-9)])
        # a tie at the last station but one: the walk must stay on the last
        # leg and return its start, not step past it to the end
        last = MetricTree(4, [(0, 1, 2.4491472056408035), (1, 2, 2.742628952969279), (2, 3, 1e-20)])
        x, y, t = last.node_point(1), last.node_point(3), 2.742628952969279
        assert _reference_point_at(last.segment(x, y), t) == last.node_point(2)
        assert last.point_at(x, y, t) == last.node_point(2)
        for tree in (ties, snaps, last):
            self._check(rng, tree)


class TestLazyWalk:
    """Point queries walk only as far as t; ``segment`` walks nothing."""

    N = 10_000

    @pytest.fixture(scope="class")
    def path(self):
        return MetricTree(self.N, [(i, i + 1, 1.0) for i in range(self.N - 1)])

    def _count_legs(self, monkeypatch):
        legs = []
        original = MetricTree._legs

        def counted(self, x, y):
            for leg in original(self, x, y):
                legs.append(leg)
                yield leg

        monkeypatch.setattr(MetricTree, "_legs", counted)
        return legs

    def test_point_at_walks_few_legs(self, path, monkeypatch):
        legs = self._count_legs(monkeypatch)
        end, mid = path.node_point(self.N - 1), path.node_point(self.N // 2)
        for x, y in ((end, path.node_point(0)), (mid, end)):  # climbing, descending
            legs.clear()
            p = path.point_at(x, y, 2.5)
            assert path.distance(x, p) == 2.5
            assert len(legs) == 3

    def test_segment_walks_nothing_until_chain_is_read(self, path, monkeypatch):
        legs = self._count_legs(monkeypatch)
        seg = path.segment(path.node_point(0), path.node_point(self.N - 1))
        assert legs == []
        assert seg.node_chain == tuple(range(1, self.N - 1))
        assert len(legs) == self.N - 1
        seg.node_chain
        assert len(legs) == self.N - 1


class TestDirectionFromTables:
    """Which way a geodesic leaves a point does not hinge on rounded sums."""

    def test_exit_past_a_huge_edge(self):
        # x's distance to node 2 through either end of its edge rounds to 1e17
        tree = MetricTree(3, [(0, 1, 1.0), (1, 2, 1e17)])
        x, y = tree.edge_point(0, 1, 0.5), tree.node_point(2)
        assert tree.segment(x, y).node_chain == (1,)
        assert tree.point_at(x, y, 0.25) == tree.edge_point(0, 1, 0.75)


class TestLcaOracle:
    """``lca`` and ``node_distance`` against the reference's parent and hop
    lists, which share no code with the preorder intervals."""

    SHAPES = ["random", "path", "caterpillar", "star"]

    def _check(self, tree, pairs):
        rd = _reference_tables(tree.n_nodes, tree.edges)["_root_dist"]
        for u, v in pairs:
            w = _reference_lca(tree, u, v)
            assert tree.lca(u, v) == w
            assert tree.node_distance(u, v) == rd[u] + rd[v] - 2.0 * rd[w]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_pair_on_small_trees(self, rng, shape):
        for n in (1, 2, 3, 4, 7, 12, 25, 60):
            tree = shaped_tree(rng, shape, n)
            self._check(tree, itertools.product(range(n), repeat=2))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampled_pairs_on_a_large_tree(self, rng, shape):
        tree = shaped_tree(rng, shape, 2000)
        self._check(tree, rng.integers(0, 2000, (2000, 2)).tolist())


def _reference_tables(n_nodes, edges):
    """The sequential constructor ``MetricTree`` replaced, kept as the
    reference: union-find validation edge by edge, then a DFS from node 0.
    Returns its tables, with each node's parent edge, the DFS's pop order
    and each node's interval in it, or raises what it raised."""
    return _reference_walk(n_nodes, edges)[0]


@lru_cache(maxsize=4)
def _reference_ancestry(tree):
    """The reference's parent and hop lists for ``tree``."""
    tables, hops = _reference_walk(tree.n_nodes, tree.edges)
    return tables["_parent"], hops


def _reference_lca(tree, u, v):
    """Lowest common ancestor from the reference's lists: climb the deeper
    node to the other's hop count, then both in step."""
    parent, hops = _reference_ancestry(tree)
    while hops[u] > hops[v]:
        u = parent[u]
    while hops[v] > hops[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return u


def _reference_walk(n_nodes, edges):
    """``_reference_tables`` and the hop count of each node."""
    edge_list = []
    seen = set()
    uf = list(range(n_nodes))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for raw in edges:
        u, v, length = int(raw[0]), int(raw[1]), float(raw[2])
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise BadParams(f"edge ({u}, {v}) references a node outside 0..{n_nodes - 1}")
        if not (math.isfinite(length) and length > 0.0):
            raise NonpositiveEdgeLength(
                f"edge ({u}, {v}) has length {length!r}; must be positive and finite"
            )
        if u == v:
            raise CycleDetected(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) appears more than once")
        seen.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        uf[ru] = rv
        edge_list.append((u, v, length))
    if len(edge_list) != n_nodes - 1:
        raise Disconnected(
            f"{n_nodes} nodes need {n_nodes - 1} edges to be connected, got {len(edge_list)}"
        )

    adj = [[] for _ in range(n_nodes)]
    for idx, (u, v, _length) in enumerate(edge_list):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    adj = tuple(tuple(nbrs) for nbrs in adj)
    parent, hops, root_dist = [-1] * n_nodes, [0] * n_nodes, [0.0] * n_nodes
    parent_edge, order = [-1] * n_nodes, []
    stack, visited = [0], [False] * n_nodes
    visited[0] = True
    while stack:
        u = stack.pop()
        order.append(u)
        for v, idx in adj[u]:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                parent_edge[v] = idx
                hops[v] = hops[u] + 1
                root_dist[v] = root_dist[u] + edge_list[idx][2]
                stack.append(v)
    levels = max(1, max(hops).bit_length()) if n_nodes > 1 else 1
    up = [[p if p >= 0 else u for u, p in enumerate(parent)]]
    for _ in range(1, levels):
        prev = up[-1]
        up.append([prev[prev[u]] for u in range(n_nodes)])
    enter, size = [0] * n_nodes, [1] * n_nodes
    for i, u in enumerate(order):
        enter[u] = i
    for u in reversed(order[1:]):  # children before parents
        size[parent[u]] += size[u]
    return {
        "edges": tuple(edge_list),
        "_edge_u": tuple(e[0] for e in edge_list),
        "_edge_v": tuple(e[1] for e in edge_list),
        "_lengths": tuple(e[2] for e in edge_list),
        "_adj": adj,
        "_parent": tuple(parent),
        "_parent_edge": tuple(parent_edge),
        "_root_dist": tuple(root_dist),
        "_enter": tuple(enter),
        "_leave": tuple(e + k for e, k in zip(enter, size)),
        "_preorder": tuple(order),
        "_up": tuple(tuple(row) for row in up),
    }, hops


def _outcome(build):
    """``build()``, or (error type, message) when it raises."""
    try:
        return build()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _reference_outcome(n_nodes, edges):
    """``_outcome`` of ``_reference_tables``, except that an edge value the
    reference misreads is now the ``BadParams`` that names the first such
    edge, unless an earlier edge's fault wins: a value that does not convert
    (a ``ValueError`` there), a bool, a string, or a non-integral endpoint
    (which it truncated)."""
    bad = next((k for k, raw in enumerate(edges) if _value_fault(raw)), None)
    if bad is None:
        return _outcome(lambda: _reference_tables(n_nodes, edges))
    # the reference ends a clean prefix with Disconnected, or with no error
    # when the prefix already spans the nodes
    before = _outcome(lambda: _reference_tables(n_nodes, edges[:bad]))
    if isinstance(before, tuple) and before[0] is not Disconnected:
        return before
    raw = edges[bad]
    return BadParams, f"edge {raw!r} is not a (u, v, length) triple: {_value_fault(raw)}"


def _value_fault(raw):
    """Why the values of edge ``raw`` are not a (u, v, length) triple of
    numbers, or None."""
    try:
        u, v = int(raw[0]), int(raw[1])
        float(raw[2])
    except ValueError as exc:
        return str(exc)
    for x in raw[:3]:
        if isinstance(x, (bool, np.bool_, str)):
            return f"{x!r} ({type(x).__name__}) is not a number"
    for x, end in ((raw[0], u), (raw[1], v)):
        if x != end:
            return f"endpoint {x!r} is not an integer"
    return None


def _tables(tree):
    """The tables of ``tree`` in the reference's form: tuples, and the
    adjacency as read through ``neighbors`` and ``degree``."""
    tables = {}
    for key in _reference_tables(1, []):
        if key == "_adj":
            adj = tuple(tree.neighbors(u) for u in range(tree.n_nodes))
            assert all(len(nbrs) == tree.degree(u) for u, nbrs in enumerate(adj))
            tables[key] = adj
        elif key == "_up":
            tables[key] = tuple(tuple(row) for row in tree._up)
        else:
            value = getattr(tree, key)
            tables[key] = tuple(value.tolist() if isinstance(value, np.ndarray) else value)
    return tables


_FAULTS = (
    "out_of_range", "negative_endpoint", "nan_length", "inf_length", "zero_length",
    "negative_length", "self_loop", "duplicate", "reversed_duplicate", "cycle_n_minus_1",
    "one_too_many", "one_too_few", "unconvertible_length", "string_length", "bool_length",
    "fractional_endpoint", "bool_endpoint", "string_endpoint",
)


def _add_fault(edges, n, fault):
    """Put one fault into a list of at least three edges on n nodes."""
    (a, b, x), (u, v, y) = edges[0], edges[1]
    if fault == "out_of_range":
        edges[1] = (u, n, y)
    elif fault == "negative_endpoint":
        edges[1] = (-1, v, y)
    elif fault.endswith("_length"):
        bad = {"nan": math.nan, "inf": math.inf, "zero": 0.0, "negative": -1.5,
               "unconvertible": "x", "string": "1.5", "bool": True}
        edges[1] = (u, v, bad[fault[: -len("_length")]])
    elif fault == "fractional_endpoint":  # the reference truncated it to v
        edges[1] = (u, float(v) + 0.25, y)  # v may be a string of an earlier fault
    elif fault == "bool_endpoint":
        edges[1] = (u, True, y)
    elif fault == "string_endpoint":
        edges[1] = (str(u), v, y)
    elif fault == "self_loop":
        edges[1] = (u, u, y)
    elif fault == "duplicate":
        edges.insert(2, (a, b, x))
    elif fault == "reversed_duplicate":
        edges.insert(2, (b, a, 3.0))
    elif fault == "cycle_n_minus_1":  # n - 1 edges, one of them on a cycle
        edges[2] = (a, v, 1.0)
    elif fault == "one_too_many":
        edges.append((a, v, 1.0))
    else:
        assert fault == "one_too_few"
        del edges[1]


class TestConstructionParity:
    """The linear constructor against the sequential one it replaced."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar", "star"]),
        n=st.integers(1, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_tables_equal_reference(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        edges = shaped_edges(rng, shape, n)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        tree = MetricTree(n, edges)
        assert _tables(tree) == _reference_tables(n, edges)
        assert tree.n_nodes == n

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar", "star"]),
        n=st.integers(41, 1500),
    )
    @settings(max_examples=12, deadline=None)
    def test_large_trees_like_reference(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        edges = shaped_edges(rng, shape, n)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        assert _tables(MetricTree(n, edges)) == _reference_tables(n, edges)
        fault = str(rng.choice(_FAULTS))
        _add_fault(edges, n, fault)
        got = _outcome(lambda: MetricTree(n, edges))
        # replacing an edge on the cycle the new one closes leaves a tree
        assert (_tables(got) if isinstance(got, MetricTree) else got) == _reference_outcome(
            n, edges
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar", "star"]),
        n=st.integers(1, 40),
    )
    @example(seed=0, shape="random", n=1)
    @example(seed=0, shape="path", n=2)
    @example(seed=1, shape="path", n=2)
    @settings(max_examples=120, deadline=None)
    def test_neighbors_and_degree_match_reference(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        edges = shaped_edges(rng, shape, n)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        tree = MetricTree(n, edges)
        for u, nbrs in enumerate(_reference_tables(n, edges)["_adj"]):
            got = tree.neighbors(u)
            assert got == nbrs and tree.degree(u) == len(nbrs)
            assert all(type(x) is int for pair in got for x in pair)
            assert type(tree.degree(u)) is int

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_tiny_tree_like_reference(self, n):
        """Every labelling, orientation and edge order of the paths on 2
        and 3 nodes: the tour ranks in 0 and 2 jumps."""
        for labels in itertools.permutations(range(n)):
            path = list(zip(labels, labels[1:]))
            for flips in itertools.product((False, True), repeat=n - 1):
                oriented = [(v, u) if flip else (u, v) for (u, v), flip in zip(path, flips)]
                for edges in itertools.permutations(oriented):
                    edges = [(u, v, 1.5 + u) for u, v in edges]
                    assert _tables(MetricTree(n, edges)) == _reference_tables(n, edges)

    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    def test_large_tree_like_reference(self, shape, rng):
        """8000 nodes, 14 jumps: more than the hypothesis cases reach, which
        stop at 7."""
        n = 8000
        edges = shaped_edges(rng, shape, n)
        assert _tables(MetricTree(n, edges)) == _reference_tables(n, edges)

    def test_columns_build_like_triples(self, rng):
        """``parse_tree`` hands the constructor columns, which build the
        same tables as the triples they transpose."""
        for shape in ("random", "path", "caterpillar", "star"):
            edges = shaped_edges(rng, shape, 30)
            columns = _Columns.of(*(list(col) for col in zip(*edges)))
            assert _tables(MetricTree(30, columns)) == _reference_tables(30, edges)
        faulty = _Columns.of([0, 1], [1, 1], [1.0, 1.0])
        assert _outcome(lambda: MetricTree(3, faulty)) == _reference_outcome(
            3, [(0, 1, 1.0), (1, 1, 1.0)]
        )

    def test_mapping_edge_reads_as_the_scan_reads_it(self):
        """Both the build and the fault scan unpack an edge, so a mapping
        reads as its keys on each: the build once read this one by item, as
        the self-loop (0, 0, 1.0), and the scan as (0, 1, 2.0)."""
        edge = {0: 0, 1: 0, 2: 1.0}
        assert MetricTree(2, [edge]).edges == ((0, 1, 2.0),)
        with pytest.raises(DuplicateEdge, match=r"^edge \(1, 0\) appears more than once$") as exc:
            MetricTree(3, [edge, (1, 0, 1.0)])
        assert exc.value.edge == 1

    def test_generator_and_numpy_input(self, rng):
        edges = shaped_edges(rng, "random", 12)
        as_numpy = [(np.int64(u), np.int32(v), np.float64(x)) for u, v, x in edges]
        expected = _reference_tables(12, edges)
        assert _tables(MetricTree(12, iter(edges))) == expected
        as_floats = [(float(u), np.float64(v), np.float32(2.0)) for u, v, _x in edges]
        for raw in (as_numpy, as_floats):
            tables = _tables(MetricTree(12, raw))
            assert tables == _reference_tables(12, raw)
            assert all(type(u) is int for u in tables["_edge_u"] + tables["_edge_v"])
            assert all(type(x) is float for x in tables["_lengths"])
        assert _tables(MetricTree(12, as_numpy)) == expected

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize("shape", ["random", "path", "star"])
    def test_each_fault_raises_like_reference(self, fault, shape, rng):
        n = 9
        edges = shaped_edges(rng, shape, n)
        _add_fault(edges, n, fault)
        got = _outcome(lambda: MetricTree(n, edges))
        assert isinstance(got, tuple) and got == _reference_outcome(n, edges)

    def test_first_of_two_faults_wins(self):
        n = 6
        cases = [
            ([(0, 1, 1.0), (2, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 9, 1.0)], CycleDetected),
            ([(0, 1, 1.0), (1, 2, math.nan), (1, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
             NonpositiveEdgeLength),
            ([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 1.0)], DuplicateEdge),
            ([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, -1.0), (4, 5, 1.0)], CycleDetected),
            ([(0, 1, 1.0), (1, 1, 1.0), (1, 2, "x"), (2, 3, 1.0), (3, 4, 1.0)], CycleDetected),
            ([(0, 1, 1.0), (1, 7, 1.0)], BadParams),
        ]
        for edges, first in cases:
            got = _outcome(lambda: MetricTree(n, edges))
            assert got == _reference_outcome(n, edges)
            assert got[0] is first

    @given(
        seed=st.integers(0, 2**32 - 1),
        faults=st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_faults_raise_like_reference(self, seed, faults):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(7, 20))
        edges = shaped_edges(rng, str(rng.choice(["random", "path", "star"])), n)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        for fault in faults:
            _add_fault(edges, n, fault)
        got = _outcome(lambda: _tables(MetricTree(n, edges)))
        assert got == _reference_outcome(n, edges)


def _sequential_root_distances(parent, parent_edge, tin, preorder, lens):
    """The root-distance fold over every preorder position, parent first,
    as the build ran it before it folded inner positions only; kept as the
    reference for ``_root_distances``."""
    below_root = preorder[1:]
    above = tin[parent[below_root]]
    by_position = [0.0]
    for at_parent, length in zip(memoryview(above), memoryview(lens[parent_edge[below_root]])):
        by_position.append(by_position[at_parent] + length)
    by_position = np.fromiter(by_position, np.float64, len(preorder))
    return by_position[tin], np.concatenate(([math.inf], by_position[above]))


def _fold_trees(rng, n):
    """(name, edges, inner nodes or None) of n-node trees, n > 2, whose sets
    of inner nodes, those with a child, are extreme: one, or all but one."""
    lengths = rng.uniform(0.2, 2.5, n - 1).tolist()
    middle = list(range(1, n // 2 + 1)) + [0] + list(range(n // 2 + 1, n))
    spread = shaped_edges(rng, "random", n - 1)  # on nodes 0..n-2, moved up to 1..n-1
    yield "star, node 0 at the center", [(0, v, x) for v, x in zip(range(1, n), lengths)], 1
    yield "star, node 0 at a tip", [(1, v, x) for v, x in zip([0, *range(2, n)], lengths)], 2
    yield "path, node 0 at an end", [(v - 1, v, x) for v, x in zip(range(1, n), lengths)], n - 1
    yield ("path, node 0 in the middle",
           [(u, v, x) for u, v, x in zip(middle, middle[1:], lengths)], n - 2)
    yield "caterpillar", shaped_edges(rng, "caterpillar", n), None
    yield "random", shaped_edges(rng, "random", n), None
    yield "a 1e8 edge above node 0", [(0, 1, 1e8)] + [(u + 1, v + 1, x) for u, v, x in spread], None


class TestRootDistanceFold:
    """``_root_distances`` folds inner positions only and gathers the rest;
    both of its tables equal the sequential fold's by bytes."""

    def _assert_like_sequential(self, tree):
        tables = (np.asarray(tree._parent), np.asarray(tree._parent_edge), tree._tin,
                  tree._preorder, tree._edge_len)
        expected = _sequential_root_distances(*tables)
        for got in (_root_distances(*tables), (tree._root_dist_arr, tree._parent_rd)):
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype == np.float64
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [3, 8000])
    def test_extreme_inner_sets(self, n):
        rng = np.random.default_rng(n)
        for name, edges, inner in _fold_trees(rng, n):
            tree = MetricTree(n, edges)
            if inner is not None:
                sizes = np.asarray(tree._leave) - tree._tin
                assert np.count_nonzero(sizes > 1) == inner, name
            self._assert_like_sequential(tree)

    def test_long_edge_above_node_0(self):
        self._assert_like_sequential(MetricTree(4, [(0, 1, 1e8), (1, 2, 0.1), (1, 3, 0.2)]))

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar", "star"]),
        n=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_trees(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        self._assert_like_sequential(shaped_tree(rng, shape, n))


class TestBuildGarbage:
    """A build leaves O(log n) objects for the cyclic garbage collector to
    track (the memoryviews of its tables and lifting rows), not one or more
    per node, and a few machine words per node."""

    @pytest.mark.parametrize("shape", ["random", "path"])
    @pytest.mark.parametrize("n", [1000, 8000])
    def test_tracked_objects_do_not_grow_with_n(self, shape, n, rng):
        edges = shaped_edges(rng, shape, n)
        MetricTree(n, edges)  # first-call caches, not the build's own
        gc.disable()
        try:
            before = len(gc.get_objects())
            tree = MetricTree(n, edges)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert tree.n_nodes == n
        assert grown <= 2 * n.bit_length() + 32

    @pytest.mark.parametrize("shape", ["random", "path"])
    def test_retained_bytes_per_node(self, shape, rng):
        """The tables of an 8000-node tree hold a few machine words per node:
        about 110 bytes on a random tree and 140 on a path, against 145 and
        210 in 64-bit ids (the lifting rows grow as log n)."""
        n = 8000
        edges = shaped_edges(rng, shape, n)
        MetricTree(n, edges)  # first-call caches, not the build's own
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = MetricTree(n, edges)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tree.n_nodes == n
        assert retained <= 160 * n

    @pytest.mark.parametrize("reader", ["bulk", "lines"])
    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    def test_document_peak_bytes_per_node(self, shape, reader, rng, monkeypatch):
        """Loading an 8000-node document peaks at no more than 150 bytes per
        node above the text through the bulk pass (about 137; 193 while the
        tour held 136 per node), of which the tree keeps 90-125, and at no
        more than 250 through the line reader, whose own lists peak at about
        194 before the build: the document's lines and the reader's rows or
        lists are dropped before the build, and the tour's temporaries
        before the root distances and lifting rows."""
        n = 8000
        text = "".join(f"edge {u} {v} {x!r}\n" for u, v, x in shaped_edges(rng, shape, n))
        text += "".join(f"point p{k} node {k}\n" for k in range(24))
        if reader == "lines":
            line_reader_only(monkeypatch)
        parse_tree(text)  # first-call caches, not the parse's own
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            doc = parse_tree(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert doc.tree.n_nodes == n and len(doc.points) == 24
        assert peak <= {"bulk": 150, "lines": 250}[reader] * n

    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    def test_tour_transient_bytes_per_node(self, shape, rng, monkeypatch):
        """The Euler tour of an 8000-node build holds at most 90 bytes per
        node above its inputs, its outputs included: about 80, against 136
        when it built an arange and the row positions over the half-edges and
        held its per-edge arrays to its end."""
        n = 8000
        edges = shaped_edges(rng, shape, n)
        tour, peaks = core._tour, []

        def traced(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rooted = tour(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return rooted

        monkeypatch.setattr(core, "_tour", traced)
        MetricTree(n, edges)  # first-call caches, not the tour's own
        tracemalloc.start()
        try:
            MetricTree(n, edges)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2 and peaks[1] <= 90 * n


def _every_build(rng):
    """(how, tree) for each way a tree is built: a document through the bulk
    pass (a one-edge document too) and through the line reader alone,
    triples, ``_Columns.of`` and reconstruction's ``_Builder``."""
    edges = shaped_edges(rng, "random", 12)
    doc = "".join(f"edge {u} {v} {x!r}\n" for u, v, x in edges)
    yield "bulk", parse_tree(doc).tree
    yield "bulk, one edge", parse_tree("edge 1 0 2.5\n").tree
    with pytest.MonkeyPatch.context() as mp:
        line_reader_only(mp)
        lines = parse_tree(doc).tree
    yield "lines", lines
    yield "triples", MetricTree(12, edges)
    yield "columns", MetricTree(12, _Columns.of(*(list(col) for col in zip(*edges))))
    source = MetricTree(12, edges)
    labels = [source.node_point(u) for u in range(12)]
    yield "builder", tree_from_distances(matrix_from_points(source, labels))[0]


def _is_plain(p):
    return (
        (p.node is None or type(p.node) is int)
        and (p.edge is None or type(p.edge) is int)
        and type(p.offset) is float
    )


class TestTableContract:
    """Whatever built a tree, its scalar queries answer in plain ``int`` and
    ``float``, it pickles and copies, and its tables are read-only."""

    def test_scalar_queries_answer_plain_numbers(self, rng):
        for how, tree in _every_build(rng):
            n = tree.n_nodes
            for u in range(n):
                assert type(tree.degree(u)) is int, how
                assert all(type(x) is int for pair in tree.neighbors(u) for x in pair), how
                for v in range(n):
                    assert type(tree.lca(u, v)) is int, how
                    assert type(tree.node_distance(u, v)) is float, how
            for e in range(n - 1):
                assert all(type(x) is int for x in tree.edge_nodes(e)), how
                assert type(tree.edge_length(e)) is float, how
            assert all(type(x) is int for u, v, _ in tree.edges for x in (u, v)), how
            assert all(type(length) is float for *_, length in tree.edges), how

    def test_points_and_reports_hold_plain_numbers(self, rng):
        for how, tree in _every_build(rng):
            pts = random_points(rng, tree, 6)
            x, y, z = pts[:3]
            u, v = tree.edge_nodes(tree.n_nodes - 2)
            made = [
                tree.node_point(tree.n_nodes - 1),
                tree.edge_point(u, v, 0.5 * tree.edge_length(tree.n_nodes - 2)),
                tree.point_at(x, y, 0.4 * tree.distance(x, y)),
                tree.median(x, y, z),
                *tree.segment(x, z).sample(5),
                *edge_samples(tree, 2),
                *PointArray.of(tree, pts),
            ]
            assert all(map(_is_plain, made)), how
            ps = PointSet(tree, pts + made[:4])
            for report in (measure_report(ps), min_ball_cover(ps, 1.0)):
                json.dumps(report_obj(report))

    def test_pickle_and_deepcopy_round_trip(self, rng):
        for how, tree in _every_build(rng):
            pts = random_points(rng, tree, 8)
            for clone, clone_pts in (
                pickle.loads(pickle.dumps((tree, pts))),
                copy.deepcopy((tree, pts)),
            ):
                assert clone.edges == tree.edges and clone.tol == tree.tol, how
                assert all(p.tree is clone for p in clone_pts)
                for (p, q), (cp, cq) in zip(
                    itertools.combinations(pts, 2), itertools.combinations(clone_pts, 2)
                ):
                    assert clone.distance(cp, cq).hex() == tree.distance(p, q).hex(), how
        tol = Tolerance(1e-6, 0.0)
        assert pickle.loads(pickle.dumps(MetricTree(2, [(0, 1, 1.0)], tol=tol))).tol == tol

    def test_tables_are_read_only(self, rng):
        for how, tree in _every_build(rng):
            tables = [getattr(tree, name) for name in (
                "_parent", "_parent_edge", "_root_dist", "_enter", "_leave",
                "_edge_u", "_edge_v", "_lengths",
            )]
            for table in tables + list(tree._up):
                with pytest.raises(TypeError):
                    table[0] = table[0]
            arrays = [getattr(tree, name) for name in (
                "_tin", "_preorder", "_root_dist_arr", "_parent_rd",
                "_adj_start", "_adj_half", "_ends", "_edge_len",
            )]
            for array in arrays:
                with pytest.raises(ValueError):
                    array[0] = array[0]

    def test_id_tables_hold_32_bit_ids(self, rng):
        # the input columns and the float tables keep their types
        for how, tree in _every_build(rng):
            for name in ("_tin", "_preorder", "_adj_start", "_adj_half"):
                assert getattr(tree, name).dtype == np.int32, (how, name)
            for table in (tree._parent, tree._parent_edge, tree._enter, tree._leave, *tree._up):
                assert np.dtype(table.format) == np.int32, how
            assert tree._ends.dtype == np.intp and tree._edge_len.dtype == np.float64, how

    def test_id_type_holds_every_half_edge(self):
        # on n nodes the half-edge rows end at 2n - 2, the largest id kept
        assert _id_type(1) is _id_type(2**30) is np.int32
        assert _id_type(2**30 + 1) is _id_type(2**31) is np.intp


class TestIdChecks:
    """Node and edge ids out of range, bools and floats raise BadParams
    rather than wrap around or index past the end."""

    STAR = [(0, 1, 1.0), (0, 2, 1.5), (0, 3, 2.5)]

    def test_bad_node_ids(self):
        tree = MetricTree(4, self.STAR)
        calls = (
            tree.degree, tree.neighbors, tree.node_point,
            lambda u: tree.lca(u, 2), lambda u: tree.lca(2, u),
            lambda u: tree.node_distance(u, 2), lambda u: tree.node_distance(2, u),
        )
        for bad in (-1, 4, True, 1.0, "1", None):
            for call in calls:
                with pytest.raises(BadParams):
                    call(bad)

    def test_bad_edge_ids(self):
        tree = MetricTree(4, self.STAR)
        for bad in (-1, 3, True, 1.0, "1", None):
            for call in (tree.edge_nodes, tree.edge_length):
                with pytest.raises(BadParams):
                    call(bad)

    def test_integer_ids_of_any_type(self):
        tree = MetricTree(4, self.STAR)
        assert tree.degree(np.int64(0)) == 3 and tree.degree(np.int32(3)) == 1
        assert tree.neighbors(np.intp(2)) == ((0, 1),)
        assert type(tree.lca(np.int64(1), np.int64(2))) is int
        assert tree.node_distance(np.int64(1), 3) == 3.5
        assert tree.edge_nodes(np.int64(2)) == (0, 3) and tree.edge_length(np.int8(1)) == 1.5


_PATH3 = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
_ENDS = (_PATH3.node_point(0), _PATH3.node_point(2))
_RULES = "n_nodes must be an integer >= 1", "tolerance components must be finite and nonnegative"


# each input is refused by its owner: counts by core._count, reals by a
# range check that tests _build._is_number_type first
@pytest.mark.parametrize("call, error, message", [
    (lambda: MetricTree(True, []), BadParams, f"{_RULES[0]}, got True"),
    (lambda: MetricTree(2.0, [(0, 1, 1.0)]), BadParams, f"{_RULES[0]}, got 2.0"),
    (lambda: MetricTree(0, []), BadParams, f"{_RULES[0]}, got 0"),
    (lambda: Tolerance("x", 1e-9), BadParams, _RULES[1]),
    (lambda: Tolerance(True, 0.0), BadParams, _RULES[1]),
    (lambda: Tolerance(0.0, np.True_), BadParams, _RULES[1]),
    (lambda: random_tree(np.random.default_rng(0), 2.5), BadParams, f"{_RULES[0]}, got 2.5"),
    (lambda: random_tree(np.random.default_rng(0), max_nodes=0), BadParams,
     "max_nodes must be an integer >= 1, got 0"),
    (lambda: random_points(np.random.default_rng(0), _PATH3, 1.5), BadParams,
     "k must be an integer >= 0, got 1.5"),
    (lambda: _PATH3.segment(*_ENDS).sample(1.5), BadParams, "k must be an integer >= 0, got 1.5"),
    (lambda: kappa_probe(_PATH3, 1, eps="x"), PreconditionViolation,
     "eps must lie in (0, 1), got 'x'"),
    (lambda: kappa_probe(_PATH3, 1, eps="0.5"), PreconditionViolation,
     "eps must lie in (0, 1), got '0.5'"),
    (lambda: gallery("star", n=3.0), BadParams, "parameter 'n' must be an integer >= 1, got 3.0"),
    (lambda: lifschitz_witness(_PATH3, *_ENDS, r=True, eps=0.5), PreconditionViolation,
     "r must be positive, got True"),
], ids=["tree-bool", "tree-float", "tree-zero", "tol-str", "tol-bool", "tol-numpy-bool",
        "random-tree-float", "random-tree-max", "random-points-float", "sample-float",
        "kappa-eps-str", "kappa-eps-numeric-str", "gallery-float", "witness-r-bool"])
def test_inputs_refused_by_their_owner(call, error, message):
    # before, the bool tree, the string tolerance, the three float counts
    # and the sample raised TypeError, eps="x" ValueError; the bool
    # tolerances, eps="0.5", n=3.0 and r=True were accepted
    assert issubclass(error, MetricTreeError)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# offsets and arc lengths are reals by _build._is_number_type, tested inside
# each range check; before, "0.5" and True were read as 0.5 and 1.0, "1" as
# an arc length raised a bare TypeError and 10**400 an OverflowError
@pytest.mark.parametrize("call", [
    lambda: _PATH3.edge_point(0, 1, "0.5"),
    lambda: _PATH3.edge_point(0, 1, True),
    lambda: _PATH3.edge_point(1, 2, np.True_),
    lambda: _PATH3.edge_point(0, 1, None),
    lambda: _PATH3.edge_point(0, 1, 10**400),
    lambda: _PATH3.segment(*_ENDS).point_at(True),
    lambda: _PATH3.segment(*_ENDS).point_at("1"),
    lambda: _PATH3.segment(*_ENDS).point_at(None),
    lambda: _PATH3.point_at(*_ENDS, np.False_),
    lambda: _PATH3.point_at(*_ENDS, -(10**400)),
], ids=["offset-str", "offset-bool", "offset-numpy-bool", "offset-none", "offset-huge-int",
        "arc-bool", "arc-str", "arc-none", "arc-numpy-bool", "arc-huge-int"])
def test_offsets_and_arc_lengths_are_real_numbers(call):
    with pytest.raises(ParameterOutOfRange, match="outside"):
        call()


def test_real_offsets_and_arc_lengths_of_any_type():
    assert _PATH3.edge_point(0, 1, np.float32(0.5)) == _PATH3.edge_point(0, 1, 0.5)
    assert _PATH3.edge_point(0, 1, 1) == _PATH3.node_point(1)
    assert _PATH3.edge_point(0, 1, Fraction(1, 2)) == _PATH3.edge_point(0, 1, 0.5)
    seg = _PATH3.segment(*_ENDS)
    assert seg.point_at(1) == seg.point_at(np.int64(1)) == _PATH3.node_point(1)
    assert seg.point_at(np.float64(0.5)) == _PATH3.edge_point(0, 1, 0.5)


def test_numpy_node_count_builds():
    # BadParams before; node ids took numpy integers already
    tree = MetricTree(np.int64(3), [(0, 1, 1.0), (1, 2, 2.0)])
    assert type(tree.n_nodes) is int and tree.n_nodes == 3
    assert tree.distance(tree.node_point(0), tree.node_point(2)) == 3.0
    assert _PATH3.segment(*_ENDS).sample(np.int64(0)) == list(_ENDS)


# CPython 3.11's parser grows its token array in powers of two, so compiling
# a module of more than 2**13 tokens takes about 0.5 MB more memory; the
# benchmark compiles core.py and _build.py at every import
_CORE_TOKEN_STEP = 8192


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the compile-memory step was measured on Python 3.11")
def test_core_stays_below_compile_memory_step():
    """The tokens the parser reads from ``core.py`` and from ``_build.py``,
    split off it: tokenize's, less comments and NL tokens, which never
    reach it."""
    import io
    import tokenize

    import metrictrees._build
    import metrictrees.core

    for module in (metrictrees.core, metrictrees._build):
        with open(module.__file__, encoding="utf-8") as fh:
            tokens = tokenize.generate_tokens(io.StringIO(fh.read()).readline)
            count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)
        name = module.__name__.rpartition(".")[2]
        assert count <= _CORE_TOKEN_STEP, (
            f"{name}.py holds {count} parser tokens, above the {_CORE_TOKEN_STEP} at "
            "which compiling it takes about 0.5 MB more; split it first"
        )
