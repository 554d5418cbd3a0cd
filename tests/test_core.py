"""Tests for the tree model and geodesic queries.

Oracle notes: segment/median/betweenness assertions on fixtures are frozen
from hand-traced paths; randomized invariants (metric axioms, betweenness
transitivity, segment gluing, ball convexity, four-point) are checked
against direct distance arithmetic on sampled points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrictrees import (
    BadParams,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    ForeignPoint,
    MetricTree,
    NonpositiveEdgeLength,
    ParameterOutOfRange,
    PointArray,
    Tolerance,
    TooFewPoints,
    edge_samples,
    gallery,
    is_metric_segment,
    lifschitz_witness,
    random_point,
    random_points,
    random_tree,
    segment_intersection,
    validate_tree,
)

from conftest import star_tips


class TestValidation:
    def test_smallest_tree(self):
        tree = validate_tree(2, [(0, 1, 1.0)])
        assert tree.n_nodes == 2
        assert tree.edge_length(0) == 1.0

    def test_triangle_is_cycle(self):
        with pytest.raises(CycleDetected):
            validate_tree(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_zero_length_spoke(self):
        with pytest.raises(NonpositiveEdgeLength):
            validate_tree(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 0.0)])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            validate_tree(2, [(0, 0, 1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            validate_tree(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            validate_tree(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_single_node_tree_is_legal(self):
        tree = validate_tree(1, [])
        p = tree.node_point(0)
        assert tree.distance(p, p) == 0.0

    def test_bad_node_reference(self):
        with pytest.raises(BadParams):
            validate_tree(2, [(0, 5, 1.0)])


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
        with pytest.raises(BadParams):
            simple_doc.tree.edge_point(0, 2, 0.5)


class TestBetweenness:
    def test_collinear_path(self):
        t = validate_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
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
            s = tree.segment(x, y)
            _pts, cum = s._stations
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


class TestPointAt:
    def test_endpoints(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert t.point_at(p["A"], p["C"], 0.0) == p["A"]
        assert t.point_at(p["A"], p["C"], 3.0) == p["C"]

    def test_node_hit(self):
        t = validate_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert t.point_at(t.node_point(0), t.node_point(2), 1.0) == t.node_point(1)

    def test_edge_interior(self):
        t = validate_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
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
            inter = segment_intersection(tree.segment(x, z), tree.segment(y, z))
            assert inter is not None
            wz = tree.segment(w, z)
            assert tree.distance(inter.a, inter.b) == pytest.approx(
                wz.total_length, abs=1e-9
            )
            assert wz.contains(inter.a) and wz.contains(inter.b)
            assert inter.contains(w) and inter.contains(z)
            pinch = segment_intersection(tree.segment(x, y), wz)
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
        inter = segment_intersection(s, s)
        assert inter.total_length == pytest.approx(s.total_length)

    def test_shared_prefix(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        inter = segment_intersection(t.segment(p["A"], p["C"]), t.segment(p["A"], p["D"]))
        assert inter is not None
        ab = t.segment(p["A"], p["B"])
        assert inter.total_length == pytest.approx(ab.total_length)
        assert {inter.a, inter.b} == {p["A"], p["B"]}

    def test_disjoint_subpaths(self):
        t = validate_tree(5, [(i, i + 1, 1.0) for i in range(4)])
        n = [t.node_point(i) for i in range(5)]
        assert segment_intersection(t.segment(n[0], n[1]), t.segment(n[3], n[4])) is None

    def test_single_point_touch(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        inter = segment_intersection(t.segment(p["A"], p["B"]), t.segment(p["B"], p["C"]))
        assert inter is not None
        assert inter.total_length == pytest.approx(0.0, abs=1e-12)
        assert inter.a == p["B"]


class TestArcCriterion:
    def test_two_points(self, simple_doc):
        p = simple_doc.points
        assert is_metric_segment([p["A"], p["C"]])

    def test_collinear_in_order(self):
        t = validate_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert is_metric_segment([t.node_point(i) for i in range(3)])

    def test_star_detour_fails(self, star_doc):
        doc = star_doc(3)
        t, p = doc.tree, doc.points
        pts = [p["tip1"], p["hub"], p["tip2"], p["tip3"]]
        assert not is_metric_segment(pts)

    def test_point_outside_span_fails(self):
        t = validate_tree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
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
        """Queries share no mutable state beyond the lazily built kernel
        arrays, which the first calls race to build; hammer them from threads."""
        import concurrent.futures
        import sys

        t, p = simple_doc.tree, simple_doc.points
        sample = edge_samples(t, 5)  # builds the tree's arrays, not the sample's
        fresh = gallery("simple")  # no arrays built yet
        expected = [t.distance(p["D"], q) for q in sample]

        def work(_):
            assert t.distance(p["A"], p["C"]) == pytest.approx(3.0)
            assert t.median(p["A"], p["C"], p["D"]) == p["B"]
            assert t.distances(p["D"], sample).tolist() == expected
            q = fresh.points
            assert fresh.tree.distances(q["A"], [q["C"], q["D"]]).tolist() == [3.0, 3.0]
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


def test_leq_array_matches_scalar(rng):
    tol = Tolerance(1e-6, 1e-3)
    for b in (0.0, 1e-7, 2.0, 5000.0):
        # the slack at b is max(1e-6, 1e-3 * b): probe both sides of it
        a = b + np.concatenate((
            [-1.0, 0.0, 9e-7, 1.1e-6, 1.9e-3 * b, 2.1e-3 * b, 1e4],
            rng.uniform(-3e-3, 3e-3, 200) * max(b, 1e-3),
        ))
        assert tol.leq_array(a, b).tolist() == [tol.leq(float(x), b) for x in a]


def _shaped_tree(rng, shape, n):
    """A random tree, path or caterpillar on n nodes under shuffled ids."""
    spine = max(1, n // 2)
    parent = [
        i - 1 if shape == "path" or (shape == "caterpillar" and i < spine)
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
    return MetricTree(n, edges)


def _edge_samples_reference(tree, per_edge):
    pts = [tree.node_point(i) for i in range(tree.n_nodes)]
    for u, v, length in tree.edges:
        for j in range(1, per_edge + 1):
            pts.append(tree.edge_point(u, v, length * j / (per_edge + 1)))
    return pts


def _witness_reference(tree, x, y, r, eps, test_points):
    """The scalar loop ``lifschitz_witness`` replaced: (applicable, failures)."""
    z = tree.point_at(x, y, eps * r)
    a, b, tol = 1.0 + eps, 2.0 - 2.0 * eps, tree.tol
    applicable, failures = 0, []
    for w in test_points:
        if tol.leq(tree.distance(w, x), a * r) and tol.leq(tree.distance(w, y), b * r):
            applicable += 1
            if not tol.leq(tree.distance(w, z), r):
                failures.append(w)
    return applicable, failures


class TestDistancesKernel:
    """``distances`` against the scalar ``distance`` it must equal bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "path", "caterpillar"]),
        n=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_scalar_distance(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        tree = _shaped_tree(rng, shape, n)
        sources = random_points(rng, tree, 6) + [tree.node_point(int(rng.integers(0, n)))]
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
            assert np.array_equal(tree.distances(p, PointArray.of(tree, targets)), expected)

    def test_empty_targets(self, simple_doc):
        t = simple_doc.tree
        assert t.distances(simple_doc.points["A"], []).shape == (0,)

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

    def test_read_only(self, simple_doc):
        sample = edge_samples(simple_doc.tree, 2)
        with pytest.raises(ValueError):
            sample.offset[0] = 1.0


class TestWitnessScan:
    """``lifschitz_witness``'s array scans against the scalar loop.

    Scalar ``distance`` is not bit-symmetric on two edge-interior points, so
    the verdicts are compared, not the distances.
    """

    def _cases(self, rng):
        for _ in range(40):
            tree = _shaped_tree(rng, str(rng.choice(["random", "path", "caterpillar"])), 12)
            x, y = random_points(rng, tree, 2)
            d = tree.distance(x, y)
            if d > 1e-9:
                r = float(rng.uniform(0.05, 0.95)) * d
                yield tree, x, y, r, float(rng.uniform(0.05, 0.95))

    def test_verdicts_match_scalar_loop(self, rng):
        for tree, x, y, r, eps in self._cases(rng):
            pts = random_points(rng, tree, 20) + list(edge_samples(tree, 3))
            _w, ver = lifschitz_witness(tree, x, y, r, eps, pts)
            applicable, failures = _witness_reference(tree, x, y, r, eps, pts)
            assert (ver.checked, ver.applicable, list(ver.failures)) == (
                len(pts), applicable, failures
            )

    def test_failures_match_scalar_loop(self, rng, monkeypatch):
        # a wrong center (the far end y) makes points fail, so that the
        # failure list is compared on nonempty cases too
        monkeypatch.setattr(MetricTree, "point_at", lambda self, x, y, t: y)
        seen = 0
        for tree, x, y, r, eps in self._cases(rng):
            pts = edge_samples(tree, 3)
            _w, ver = lifschitz_witness(tree, x, y, r, eps, pts)
            applicable, failures = _witness_reference(tree, x, y, r, eps, pts)
            assert (ver.applicable, list(ver.failures)) == (applicable, failures)
            seen += len(failures)
        assert seen > 0
