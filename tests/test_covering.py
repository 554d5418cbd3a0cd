"""Tests for diameter, circumcenter, optimal covers, and profiles.

Every optimized routine is compared against an independent brute force:
all-pairs scans for the diameter, dense center enumeration for the
circumcenter and one-ball coverability, and exhaustive partition
enumeration for cover counts and profiles.
"""

import itertools
import math

import numpy as np
import pytest

from metrictrees import covering
from metrictrees import (
    BadParams,
    BallCover,
    CoverProfile,
    MetricTree,
    EmptySet,
    NegativeDiameter,
    NegativeRadius,
    PointArray,
    PointSet,
    TooLargeForOracle,
    alpha_profile,
    ball_diameter,
    beta_profile,
    beta_star_profile,
    circumcenter,
    diameter,
    edge_samples,
    gallery,
    measure_report,
    min_ball_cover,
    min_diameter_partition,
    oracle_min_cover,
    oracle_profiles,
    random_points,
    random_tree,
)

from conftest import shaped_tree, star_tips


def all_pairs_diameter(ps):
    pts = ps.distinct
    best = 0.0
    for p, q in itertools.combinations(pts, 2):
        best = max(best, ps.tree.distance(p, q))
    return best


def candidate_centers(ps):
    """Dense center candidates: all nodes plus all pair midpoints (the
    degenerate pair i == j contributes the point itself)."""
    tree = ps.tree
    cands = [tree.node_point(i) for i in range(tree.n_nodes)]
    cands.extend(ps.distinct)
    for p, q in itertools.combinations(ps.distinct, 2):
        cands.append(tree.midpoint(p, q))
    return cands


def random_instance(rng, max_nodes=10, max_points=8):
    tree = random_tree(rng, max_nodes=max_nodes)
    k = int(rng.integers(1, max_points + 1))
    return PointSet(tree, random_points(rng, tree, k))


class TestDiameter:
    def test_singleton(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        d, (x, y) = diameter(ps)
        assert d == 0.0 and x == y

    def test_star_tips(self, star_doc):
        doc = star_doc(3)
        ps = PointSet(doc.tree, star_tips(doc))
        assert diameter(ps)[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_comb_noncompact_formula(self, n):
        doc = gallery("comb_noncompact", n=n)
        ps = PointSet(doc.tree, [doc.points[f"tip{i}"] for i in range(1, n + 1)])
        assert diameter(ps)[0] == pytest.approx(2.0 + (1.0 - 1.0 / n), abs=1e-12)

    def test_two_sweep_matches_all_pairs(self, rng):
        for _ in range(80):
            ps = random_instance(rng)
            d, (x, y) = diameter(ps)
            assert d == pytest.approx(all_pairs_diameter(ps), abs=1e-9)
            assert ps.tree.distance(x, y) == pytest.approx(d, abs=1e-12)

    def test_empty(self, simple_doc):
        with pytest.raises(EmptySet):
            diameter(PointSet(simple_doc.tree, []))


class TestCircumcenter:
    def test_singleton(self, simple_doc):
        p = simple_doc.points["A"]
        m, r = circumcenter(PointSet(simple_doc.tree, [p]))
        assert m == p and r == 0.0

    def test_two_points(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        m, r = circumcenter(PointSet(t, [p["A"], p["C"]]))
        assert r == pytest.approx(1.5)
        assert t.distance(m, p["A"]) == pytest.approx(1.5)

    def test_star_tips(self, star_doc):
        doc = star_doc(3)
        m, r = circumcenter(PointSet(doc.tree, star_tips(doc)))
        assert m == doc.points["hub"]
        assert r == pytest.approx(1.0)

    def test_covers_at_half_diameter_and_is_optimal(self, rng):
        for _ in range(60):
            ps = random_instance(rng)
            m, r = circumcenter(ps)
            worst = max(ps.tree.distance(m, q) for q in ps.distinct)
            assert worst <= r + 1e-9
            best_possible = min(
                max(ps.tree.distance(c, q) for q in ps.distinct)
                for c in candidate_centers(ps)
            )
            assert best_possible >= r - 1e-9


class TestMinBallCover:
    def test_one_ball_at_half_diameter(self, rng):
        for _ in range(30):
            ps = random_instance(rng)
            d, _ = diameter(ps)
            cover = min_ball_cover(ps, 0.5 * d + 0.1)
            assert len(cover.centers) == 1

    def test_star_tips_small_radius(self, star_doc):
        doc = star_doc(3)
        ps = PointSet(doc.tree, star_tips(doc))
        assert len(min_ball_cover(ps, 0.9).centers) == 3

    def test_star_tips_radius_one_hits_hub(self, star_doc):
        doc = star_doc(3)
        ps = PointSet(doc.tree, star_tips(doc))
        cover = min_ball_cover(ps, 1.0)
        assert len(cover.centers) == 1
        assert cover.centers[0] == doc.points["hub"]

    def test_zero_radius(self, star_doc):
        doc = star_doc(4)
        tips = star_tips(doc)
        ps = PointSet(doc.tree, tips + tips)  # duplicates collapse
        cover = min_ball_cover(ps, 0.0)
        assert len(cover.centers) == 4

    def test_negative_radius(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        for bad in (-0.5, float("nan")):
            with pytest.raises(NegativeRadius):
                min_ball_cover(ps, bad)

    def test_infinite_radius(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(NegativeRadius, match="must be nonnegative and finite"):
                min_ball_cover(ps, bad)
        assert min_ball_cover(ps, 1e300).radius == 1e300

    def test_assignment_is_valid(self, rng):
        for _ in range(40):
            ps = random_instance(rng)
            r = float(rng.uniform(0.0, 2.0))
            cover = min_ball_cover(ps, r)
            assert len(cover.assignment) == len(ps.points)
            for i, p in enumerate(ps.points):
                c = cover.centers[cover.assignment[i]]
                assert ps.tree.distance(c, p) <= r + 1e-9

    def test_greedy_count_matches_oracle(self, rng):
        for _ in range(120):
            ps = random_instance(rng, max_points=7)
            r = float(rng.uniform(0.0, 0.6)) * (diameter(ps)[0] + 0.2)
            assert len(min_ball_cover(ps, r).centers) == oracle_min_cover(ps, r, "ball")

    def test_count_nonincreasing_in_radius(self, rng):
        for _ in range(20):
            ps = random_instance(rng)
            d, _ = diameter(ps)
            radii = sorted(rng.uniform(0.0, 0.6 * d + 0.1, size=5))
            counts = [len(min_ball_cover(ps, float(r)).centers) for r in radii]
            assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestMinDiameterPartition:
    def test_one_block_at_diameter(self, rng):
        for _ in range(20):
            ps = random_instance(rng)
            d, _ = diameter(ps)
            part = min_diameter_partition(ps, d)
            assert len(part.blocks) == 1

    def test_star_tips(self, star_doc):
        doc = star_doc(3)
        ps = PointSet(doc.tree, star_tips(doc))
        assert len(min_diameter_partition(ps, 1.8).blocks) == 3
        assert len(min_diameter_partition(ps, 2.0).blocks) == 1

    def test_blocks_respect_bound_and_partition(self, rng):
        for _ in range(40):
            ps = random_instance(rng)
            bound = float(rng.uniform(0.0, 1.0)) * (diameter(ps)[0] + 0.1)
            part = min_diameter_partition(ps, bound)
            seen = sorted(i for block in part.blocks for i in block)
            assert seen == list(range(len(ps.points)))
            for block in part.blocks:
                for i in block:
                    for j in block:
                        d = ps.tree.distance(ps.points[i], ps.points[j])
                        assert d <= bound + 1e-9

    def test_count_matches_oracle(self, rng):
        for _ in range(80):
            ps = random_instance(rng, max_points=7)
            bound = float(rng.uniform(0.0, 1.2)) * (diameter(ps)[0] + 0.2)
            got = len(min_diameter_partition(ps, bound).blocks)
            assert got == oracle_min_cover(ps, bound, "diameter")

    def test_negative_bound(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        for bad in (-1.0, float("nan")):
            with pytest.raises(NegativeDiameter):
                min_diameter_partition(ps, bad)

    def test_infinite_bound(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(NegativeDiameter, match="must be nonnegative and finite"):
                min_diameter_partition(ps, bad)
        assert min_diameter_partition(ps, 1e300).diameter_bound == 1e300


class TestProfiles:
    @pytest.mark.parametrize("shape", ["star", "random", "path"])
    def test_candidates_like_every_half_distance(self, shape, rng):
        """The profile reads its candidates off the upper triangle of half
        the distance matrix; each of its values is, bit for bit, the least
        entry of the whole matrix that takes at most n greedy balls.  Points
        repeat, coincide (a node and a zero offset) and lie at equal
        distances."""
        for _ in range(6):
            tree = shaped_tree(rng, shape, int(rng.integers(2, 12)))
            pts = random_points(rng, tree, int(rng.integers(1, 9)))
            u, v = tree.edge_nodes(0)
            pts += pts[:3] + [tree.node_point(u), tree.edge_point(u, v, 0.0)]
            ps = PointSet(tree, pts)
            dist = tree._distance_matrix(ps._array)
            want = sorted(set((0.5 * dist).ravel().tolist()))
            k = len(ps.distinct)
            values = beta_profile(ps, k).values
            for n, value in enumerate(values, start=1):
                least = next(r for r in want if len(min_ball_cover(ps, r).centers) <= n)
                assert value.hex() == least.hex()

    def test_beta_one_is_half_diameter(self, rng):
        for _ in range(30):
            ps = random_instance(rng)
            assert beta_profile(ps, 1).values[0] == pytest.approx(
                0.5 * diameter(ps)[0], abs=1e-12
            )

    def test_alpha_one_is_diameter(self, rng):
        for _ in range(30):
            ps = random_instance(rng)
            assert alpha_profile(ps, 1).values[0] == pytest.approx(
                diameter(ps)[0], abs=1e-12
            )

    def test_star4_profiles(self, star_doc):
        doc = star_doc(4)
        ps = PointSet(doc.tree, star_tips(doc))
        assert beta_profile(ps, 5).values == (1.0, 1.0, 1.0, 0.0, 0.0)
        assert alpha_profile(ps, 5).values == (2.0, 2.0, 2.0, 0.0, 0.0)
        assert beta_star_profile(ps, 4).values == (2.0, 2.0, 2.0, 0.0)

    def test_value_of_n_and_set_size(self, star_doc):
        doc = star_doc(4)
        ps = PointSet(doc.tree, star_tips(doc) + star_tips(doc)[:1])
        assert len(ps) == 5 and len(ps.distinct) == 4
        profile = beta_profile(ps, 4)
        assert [profile.value(n) for n in range(1, 5)] == [1.0, 1.0, 1.0, 0.0]

    def test_singleton_profiles_zero(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        assert beta_profile(ps, 3).values == (0.0, 0.0, 0.0)
        assert beta_star_profile(ps, 3).values == (0.0, 0.0, 0.0)

    def test_monotone_and_vanishing(self, rng):
        for _ in range(30):
            ps = random_instance(rng)
            k = len(ps.distinct)
            vals = beta_profile(ps, k + 2).values
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
            assert vals[k - 1] == pytest.approx(0.0, abs=1e-12)

    def test_relations_exact(self, rng):
        for _ in range(50):
            ps = random_instance(rng)
            n_max = len(ps.distinct)
            a = alpha_profile(ps, n_max).values
            b = beta_profile(ps, n_max).values
            bs = beta_star_profile(ps, n_max).values
            for k in range(n_max):
                assert a[k] == 2.0 * b[k]
                assert bs[k] == 2.0 * b[k]
                assert b[k] <= a[k] <= 2.0 * b[k] + 1e-12

    def test_profiles_match_oracle(self, rng):
        for _ in range(60):
            ps = random_instance(rng, max_points=7)
            n_max = len(ps.distinct) + 1
            oa, ob = oracle_profiles(ps, n_max)
            assert alpha_profile(ps, n_max).values == pytest.approx(oa, abs=1e-9)
            assert beta_profile(ps, n_max).values == pytest.approx(ob, abs=1e-9)

    def test_witnesses_realize_values(self, star_doc):
        doc = star_doc(4)
        ps = PointSet(doc.tree, star_tips(doc))
        prof = beta_profile(ps, 2)
        cover = prof.witnesses[1]
        assert len(cover.centers) <= 2
        for i, p in enumerate(ps.points):
            c = cover.centers[cover.assignment[i]]
            assert doc.tree.distance(c, p) <= prof.values[1] + 1e-9


class TestOracle:
    def test_singleton(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"]])
        assert oracle_min_cover(ps, 0.0, "ball") == 1

    def test_zero_radius_counts_distinct(self, star_doc):
        doc = star_doc(5)
        ps = PointSet(doc.tree, star_tips(doc))
        assert oracle_min_cover(ps, 0.0, "ball") == 5

    def test_negative_value(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["A"], simple_doc.points["C"]])
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(NegativeRadius):
                oracle_min_cover(ps, bad, "ball")
            with pytest.raises(NegativeDiameter):
                oracle_min_cover(ps, bad, "diameter")

    def test_guard(self, rng):
        tree = random_tree(rng, n_nodes=14)
        pts = [tree.node_point(i) for i in range(tree.n_nodes)]
        with pytest.raises(TooLargeForOracle):
            oracle_min_cover(PointSet(tree, pts), 1.0, "ball")

    def test_one_ball_coverability_matches_dense_centers(self, rng):
        """A block fits in one closed r-ball iff its diameter is <= 2r;
        direction one realized by the circumcenter, direction two by the
        triangle inequality.  Validates the oracle's block feasibility."""
        for _ in range(60):
            ps = random_instance(rng, max_nodes=8, max_points=5)
            d, _ = diameter(ps)
            r = float(rng.uniform(0.0, 0.8)) * (d + 0.2)
            by_diameter = d <= 2.0 * r + 1e-9
            by_centers = any(
                all(ps.tree.distance(c, q) <= r + 1e-9 for q in ps.distinct)
                for c in candidate_centers(ps)
            )
            assert by_diameter == by_centers


class TestEntryPointGuards:
    EMPTY_CALLS = {
        "diameter": diameter,
        "circumcenter": circumcenter,
        "min_ball_cover": lambda ps: min_ball_cover(ps, 1.0),
        "min_diameter_partition": lambda ps: min_diameter_partition(ps, 1.0),
        "beta_profile": lambda ps: beta_profile(ps, 2),
        "alpha_profile": lambda ps: alpha_profile(ps, 2),
        "beta_star_profile": lambda ps: beta_star_profile(ps, 2),
        "oracle_min_cover_ball": lambda ps: oracle_min_cover(ps, 1.0),
        "oracle_min_cover_diameter": lambda ps: oracle_min_cover(ps, 1.0, mode="diameter"),
        "oracle_profiles": lambda ps: oracle_profiles(ps, 2),
    }

    @pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
    def test_empty_point_set(self, simple_doc, name):
        with pytest.raises(EmptySet):
            self.EMPTY_CALLS[name](PointSet(simple_doc.tree, []))

    @pytest.mark.parametrize(
        "profile", [beta_profile, alpha_profile, beta_star_profile, oracle_profiles]
    )
    def test_zero_parts(self, simple_doc, profile):
        with pytest.raises(BadParams, match="n_max"):
            profile(PointSet(simple_doc.tree, list(simple_doc.points.values())), 0)

    @pytest.mark.parametrize("profile", [beta_profile, oracle_profiles])
    @pytest.mark.parametrize("n_max", [2.5, True, 2.0, "2"])
    def test_non_integer_parts(self, simple_doc, profile, n_max):
        # 2.5 used to raise a bare TypeError, and True counted as 1
        with pytest.raises(BadParams, match="n_max must be an integer"):
            profile(PointSet(simple_doc.tree, list(simple_doc.points.values())), n_max)

    def test_numpy_integer_parts(self, simple_doc):
        ps = PointSet(simple_doc.tree, list(simple_doc.points.values()))
        assert beta_profile(ps, np.int64(3)) == beta_profile(ps, 3)

    RADIUS_CALLS = {
        "min_ball_cover": (NegativeRadius, min_ball_cover),
        "min_diameter_partition": (NegativeDiameter, min_diameter_partition),
        "oracle_min_cover_ball": (NegativeRadius, oracle_min_cover),
        "oracle_min_cover_diameter": (
            NegativeDiameter, lambda ps, b: oracle_min_cover(ps, b, mode="diameter"),
        ),
        "ball_diameter": (NegativeRadius, lambda ps, r: ball_diameter(ps.tree, ps.points[0], r)),
    }

    @pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
    @pytest.mark.parametrize("value", [True, False, None, "1", 1j])
    def test_radius_and_bound_are_numbers(self, simple_doc, name, value):
        # True used to read as 1.0, None and "1" to raise a bare TypeError
        error, call = self.RADIUS_CALLS[name]
        ps = PointSet(simple_doc.tree, list(simple_doc.points.values()))
        with pytest.raises(error, match="must be nonnegative and finite"):
            call(ps, value)
        assert call(ps, np.float64(1.5)) == call(ps, 1.5)

    def test_unknown_oracle_mode(self, simple_doc):
        ps = PointSet(simple_doc.tree, list(simple_doc.points.values()))
        with pytest.raises(BadParams, match="mode"):
            oracle_min_cover(ps, 1.0, mode="radius")


class TestBallDiameter:
    def test_ball_at_hub(self, star_doc):
        doc = star_doc(3)
        assert ball_diameter(doc.tree, doc.points["hub"], 0.5) == pytest.approx(1.0)
        assert ball_diameter(doc.tree, doc.points["hub"], 5.0) == pytest.approx(2.0)

    def test_ball_at_leaf_reaches_one_way(self, star_doc):
        doc = star_doc(3)
        assert ball_diameter(doc.tree, doc.points["tip1"], 0.3) == pytest.approx(0.3)

    def test_ball_around_edge_interior(self, simple_doc):
        t = simple_doc.tree
        c = t.edge_point(0, 1, 1.0)
        assert ball_diameter(t, c, 0.5) == pytest.approx(1.0)

    def test_rejects_negative_and_nan_radius(self, simple_doc):
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(NegativeRadius):
                ball_diameter(simple_doc.tree, simple_doc.points["B"], bad)

    def test_radius_within_tolerance_below_zero_reads_as_zero(self, rng):
        for _ in range(20):
            tree = random_tree(rng, max_nodes=9)
            c = random_points(rng, tree, 1)[0]
            assert ball_diameter(tree, c, -tree.tol.abs_eps / 2) == ball_diameter(tree, c, 0.0)

    def test_same_float_as_reference(self):
        """300 trees of four shapes and 1-9 nodes, then 40 of 100-400 nodes;
        radius 0, a random radius, and one larger than the tree, where every
        edge is whole and its ends repeat at every shared node."""
        rng = np.random.default_rng(303)
        for i in range(340):
            tree = shaped_tree(rng, ("random", "path", "caterpillar", "star")[i % 4],
                               int(rng.integers(1, 10) if i < 300 else rng.integers(100, 401)))
            c = random_points(rng, tree, 1)[0]
            total = sum(length for _u, _v, length in tree.edges)
            for rho in (0.0, float(rng.uniform(0.0, total)), total + 1.0):
                assert ball_diameter(tree, c, rho) == _reference_ball_diameter(tree, c, rho)

    def test_bounded_by_twice_radius(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=9)
            c = random_points(rng, tree, 1)[0]
            rho = float(rng.uniform(0.0, 3.0))
            assert ball_diameter(tree, c, rho) <= 2.0 * rho + 1e-9

    def test_matches_dense_in_ball_sampling(self, rng):
        """Brute force: max pairwise distance over a dense sample of
        in-ball points, which can only fall short of the exact value by
        the sampling resolution."""
        for _ in range(25):
            tree = random_tree(rng, max_nodes=8)
            c = random_points(rng, tree, 1)[0]
            rho = float(rng.uniform(0.1, 3.0))
            exact = ball_diameter(tree, c, rho)
            dense = [
                p for p in edge_samples(tree, per_edge=40) if tree.distance(p, c) <= rho
            ]
            longest = max((tree.edge_length(e) for e in range(len(tree.edges))), default=0.0)
            resolution = 2.0 * longest / 41
            approx = 0.0
            for i in range(len(dense)):
                for j in range(i + 1, len(dense)):
                    approx = max(approx, tree.distance(dense[i], dense[j]))
            assert approx <= exact + 1e-9
            assert approx >= exact - resolution

    def test_beta_star_witness_balls_fit_bound(self, rng):
        for _ in range(20):
            ps = random_instance(rng, max_points=6)
            n_max = len(ps.distinct)
            prof = beta_star_profile(ps, n_max)
            for k, cover in enumerate(prof.witnesses):
                for c in cover.centers:
                    assert ball_diameter(ps.tree, c, cover.radius) <= prof.values[k] + 1e-9


def _reference_ball_diameter(tree, center, rho):
    """``ball_diameter`` as it was with its own leaf test, for rho >= 0."""
    ext = [center]
    node_dist = tree.distances(center, edge_samples(tree, per_edge=0)).tolist()
    for i in range(tree.n_nodes):
        if node_dist[i] <= rho and tree.degree(i) <= 1:
            ext.append(tree.node_point(i))
    for e, (u, v, length) in enumerate(tree.edges):
        if center.edge == e:
            ext.append(tree._edge_point_at(e, max(center.offset - rho, 0.0)))
            ext.append(tree._edge_point_at(e, min(center.offset + rho, length)))
            continue
        du, dv = node_dist[u], node_dist[v]
        if du <= rho:
            ext.append(tree._edge_point_at(e, min(rho - du, length)))
        if dv <= rho:
            ext.append(tree._edge_point_at(e, max(length - (rho - dv), 0.0)))
    return diameter(PointSet(tree, ext))[0]


def _reference_min_ball_cover(ps, radius):
    """``min_ball_cover`` as it was: each center placed at once, then one
    scalar ``distance`` from it to every unassigned point."""
    tree = ps.tree
    radius = max(float(radius), 0.0)
    pts = ps.distinct
    root = tree.node_point(0)
    depth = [tree.distance(p, root) for p in pts]
    order = sorted(range(len(pts)), key=lambda i: -depth[i])
    centers = []
    assigned = [-1] * len(pts)
    for i in order:
        if assigned[i] >= 0:
            continue
        center = tree.point_at(pts[i], root, min(radius, depth[i]))
        ci = len(centers)
        centers.append(center)
        for j in range(len(pts)):
            if assigned[j] < 0 and tree.tol.leq(tree.distance(center, pts[j]), radius):
                assigned[j] = ci
    index = {p: i for i, p in enumerate(pts)}
    return BallCover(tuple(centers), radius, tuple(assigned[index[p]] for p in ps.points))


def _reference_beta_profile(ps, n_max):
    """``beta_profile`` as it was: a binary search over half the scalar
    pairwise distances, one reference cover per probed radius."""
    covers = {}

    def cover(r):
        if r not in covers:
            covers[r] = _reference_min_ball_cover(ps, r)
        return covers[r]

    pts = ps.distinct
    halves = (0.5 * ps.tree.distance(p, q) for p, q in itertools.combinations(pts, 2))
    cands = sorted({0.0, *halves})
    values = []
    hi = len(cands) - 1
    for n in range(1, n_max + 1):
        lo, top = 0, hi
        while lo < top:
            mid = (lo + top) // 2
            if len(cover(cands[mid]).centers) <= n:
                top = mid
            else:
                lo = mid + 1
        values.append(cands[lo])
        hi = lo
    return CoverProfile("radius", tuple(values), tuple(cover(v) for v in values))


def _records(cover):
    return [c.record() for c in cover.centers], cover.radius, cover.assignment


class TestScalarReference:
    """The row-reading greedy against the scalar greedy it replaced: the
    same center records, assignments, profile values and witnesses."""

    @staticmethod
    def instances(seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            tree = shaped_tree(rng, ("random", "path", "caterpillar")[i % 3],
                               int(rng.integers(1, 14)))
            pts = random_points(rng, tree, int(rng.integers(1, 9)))
            pts += [pts[int(j)] for j in rng.integers(0, len(pts), int(rng.integers(0, 3)))]
            pts += [tree.node_point(int(j)) for j in rng.integers(0, tree.n_nodes, 2)]
            yield rng, PointSet(tree, [pts[int(j)] for j in rng.permutation(len(pts))])

    def test_covers(self):
        for rng, ps in self.instances(404, 240):
            pts = ps.distinct
            halves = [0.5 * ps.tree.distance(p, q) for p, q in itertools.combinations(pts, 2)]
            d = diameter(ps)[0]
            for r in [0.0, *halves, *rng.uniform(0.0, d + 0.5, 3).tolist()]:
                got = min_ball_cover(ps, r)
                assert _records(got) == _records(_reference_min_ball_cover(ps, r))
                assert all(type(c.offset) is float for c in got.centers)
                assert all(type(i) is int for i in got.assignment)

    def test_profiles(self):
        for _rng, ps in self.instances(505, 240):
            n_max = len(ps.distinct) + 1
            got, want = beta_profile(ps, n_max), _reference_beta_profile(ps, n_max)
            assert got.values == want.values
            assert [_records(c) for c in got.witnesses] == [_records(c) for c in want.witnesses]
            assert got == want

    def test_cover_makes_no_node_pass(self, monkeypatch):
        """No O(n) pass: a cover, a partition and a measure report on a
        fresh set read its depths off the span index and its rows as span
        rows, and a second cover on the same set sorts nothing."""
        def refuse(*args):
            raise AssertionError("O(n) pass")

        monkeypatch.setattr(MetricTree, "_node_distances", refuse)
        monkeypatch.setattr(MetricTree, "distances", refuse)
        for rng, ps in self.instances(606, 60):
            r = float(rng.uniform(0.0, 2.0))
            min_ball_cover(PointSet(ps.tree, ps.points), r)
            min_diameter_partition(PointSet(ps.tree, ps.points), 2.0 * r)
            measure_report(PointSet(ps.tree, ps.points), 3)
            fresh = PointSet(ps.tree, ps.points)
            min_ball_cover(fresh, r)
            with monkeypatch.context() as m:
                m.setattr(covering, "sorted", refuse, raising=False)
                assert _records(min_ball_cover(fresh, 0.5 * r)) == _records(
                    _reference_min_ball_cover(fresh, 0.5 * r))

    def test_cover_and_diameter_build_no_matrix(self, monkeypatch):
        """A cover and ``diameter`` read rows; neither builds the k x k matrix."""
        def refuse(self, points):
            raise AssertionError("_distance_matrix called")

        monkeypatch.setattr(MetricTree, "_distance_matrix", refuse)
        for rng, ps in self.instances(707, 30):
            min_ball_cover(ps, float(rng.uniform(0.0, 2.0)))
            min_diameter_partition(ps, float(rng.uniform(0.0, 4.0)))
            diameter(ps)
            circumcenter(ps)
            ball_diameter(ps.tree, ps.points[0], float(rng.uniform(0.0, 2.0)))


def _reference_greedy(ps, radius, row):
    """``covering._greedy`` as it was: the points in depth order, one
    distance row per seed, ``row(i)`` the row of distinct point i."""
    depth = ps._depth
    leq = ps.tree.tol.leq_array
    assigned = np.full(len(ps.distinct), -1)
    seeds = []
    for i in sorted(range(len(depth)), key=lambda i: -depth[i]):
        if assigned[i] < 0:
            assigned[(assigned < 0) & leq(row(i) - radius, radius)] = len(seeds)
            seeds.append(i)
    return seeds, assigned.tolist()


class TestGreedyParity:
    """The greedy that reads its rows in passes of pending seeds against
    the greedy with one row per seed: the same seeds and assignments, from
    span rows and from matrix rows, in ``min_ball_cover`` and in
    ``beta_profile``'s values and witnesses.  The radii are the set's own
    half distances, exact and 1 ulp to either side, where the tolerance
    decides which points a ball claims."""

    @staticmethod
    def radii(rng, dist, count):
        i, j = rng.integers(0, len(dist), (2, count))
        for h in (0.5 * dist[i, j]).tolist():  # 0.0 where i == j
            yield from (h, math.nextafter(h, -math.inf), math.nextafter(h, math.inf))

    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    @pytest.mark.parametrize("k", [1, 2, 24, 200, 700])
    def test_seeds_and_assignments(self, shape, k):
        rng = np.random.default_rng(2700 + k)
        tree = shaped_tree(rng, shape, max(8, k // 2))
        ps = PointSet(tree, random_points(rng, tree, k))
        arr, dist = ps._array, tree._distance_matrix(ps._array)
        for r in self.radii(rng, dist, 4 if k > 24 else 10):
            r0 = max(r, 0.0)  # min_ball_cover reads -1 ulp of 0.0 as 0.0
            want = _reference_greedy(ps, r0, lambda i: arr._span_rows([i])[0])
            assert _reference_greedy(ps, r0, dist.__getitem__) == want
            assert covering._greedy(ps, r0, arr._span_rows) == want
            assert covering._greedy(ps, r0, dist.__getitem__) == want
            assert _records(min_ball_cover(ps, r)) == _records(covering._placed(ps, [(r0, *want)])[0])
        prof = beta_profile(ps, 5)
        half = np.unique(0.5 * dist).tolist()
        for n, value, witness in zip(range(1, 6), prof.values, prof.witnesses):
            want = _reference_greedy(ps, value, dist.__getitem__)
            assert _records(witness) == _records(covering._placed(ps, [(value, *want)])[0])
            assert len(want[0]) <= n
            # the value is the least half distance that n balls reach
            below = half[half.index(value) - 1] if value > 0.0 else None
            assert below is None or len(_reference_greedy(ps, below, dist.__getitem__)[0]) > n


class TestGreedyPasses:
    """A cover reads as few passes of span rows as its seeds allow, each
    within the float budget."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        span_rows = PointArray._span_rows

        def record(self, rows):
            calls.append((len(self), len(np.arange(len(self))[rows])))  # rows: a slice or a list
            return span_rows(self, rows)

        monkeypatch.setattr(PointArray, "_span_rows", record)
        return calls

    def test_small_cover_reads_one_pass(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        rng = np.random.default_rng(2424)
        for shape in ("random", "caterpillar"):
            tree = shaped_tree(rng, shape, 200)
            ps = PointSet(tree, random_points(rng, tree, 24))
            k = len(ps.distinct)  # random points may repeat a node
            for r in (0.0, 0.3, 1.0, 3.0, 100.0):
                calls.clear()
                min_ball_cover(ps, r)
                assert calls == [(k, k)]

    def test_large_cover_passes_within_seeds_and_budget(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        rng = np.random.default_rng(7007)
        for shape in ("random", "caterpillar"):
            tree = shaped_tree(rng, shape, 400)
            ps = PointSet(tree, random_points(rng, tree, 700))
            for r in (0.0, 0.5, 2.0, 8.0, 100.0):
                calls.clear()
                cover = min_ball_cover(ps, r)
                assert 1 <= len(calls) <= len(cover.centers)
                assert all(rows == 1 or k * rows <= covering._PASS_FLOATS for k, rows in calls)


def _bits(p):
    return p.node, p.edge, float(p.offset).hex(), type(p.offset)


def _walked(ps, i, r):
    """The reference center of distinct point i at radius r: the walk."""
    tree, depth = ps.tree, ps._depth[i]
    return tree._point_along(ps.distinct[i], tree.node_point(0), depth, min(r, depth))


def _leg_sums(ps, i):
    """The running sums of the walk from distinct point i to node 0, in path
    order, as ``_point_along`` adds its legs."""
    sums, total = [], 0.0
    for _e, cs, ct, _stop in ps.tree._legs(ps.distinct[i], ps.tree.node_point(0)):
        total += abs(cs - ct)
        sums.append(total)
    return sums


class TestCenterPlacement:
    """Centers placed by one climb for all seeds against the walk they
    replaced, ``_point_along(seed, node 0, depth, min(r, depth))``, by the
    bits of (node, edge, offset): radii at exact leg sums and 1 ulp to
    either side, 0, and at and above a seed's depth."""

    @staticmethod
    def radii(rng, ps, i):
        sums = _leg_sums(ps, i)
        depth = ps._depth[i]
        picked = [sums[int(j)] for j in rng.integers(0, len(sums), 3)] if sums else []
        out = [0.0, depth, math.nextafter(depth, 0.0), 2.0 * depth + 1.0]
        for s in picked:
            out += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
        return out + rng.uniform(0.0, depth + 1.0, 2).tolist()

    def check(self, rng, ps):
        seeds, radii = [], []
        for i in range(len(ps.distinct)):
            for r in self.radii(rng, ps, i):
                seeds.append(i)
                radii.append(max(r, 0.0))
        got = covering._centers(ps, seeds, radii)
        assert [_bits(c) for c in got] == [_bits(_walked(ps, i, r)) for i, r in zip(seeds, radii)]

    @pytest.mark.parametrize("shape", ["random", "caterpillar", "path"])
    def test_like_walk(self, shape, rng):
        for _ in range(12):
            tree = shaped_tree(rng, shape, int(rng.integers(2, 160)))
            pts = random_points(rng, tree, int(rng.integers(1, 12)))
            pts += [tree.node_point(int(j)) for j in rng.integers(0, tree.n_nodes, 3)]
            # a point inside an edge at node 0
            neighbor, e = tree.neighbors(0)[0]
            pts.append(tree.edge_point(0, neighbor, 0.5 * tree.edge_length(e)))
            self.check(rng, PointSet(tree, pts))

    def test_long_edge_above_node_0(self, rng):
        tree = MetricTree(4, [(0, 1, 1e8), (1, 2, 0.1), (1, 3, 0.2)])
        pts = [tree.node_point(k) for k in range(4)]
        pts += [tree.edge_point(1, 2, 0.05), tree.edge_point(0, 1, 3.0), tree.edge_point(1, 3, 0.1)]
        self.check(rng, PointSet(tree, pts))

    def test_wide_climb_drops_finished_rows(self, rng):
        # seeds far down a path, most with short climbs and a few with long
        # ones, so that rows finish while others climb on past _WIDE legs
        n = 1200
        tree = MetricTree(n, [(k, k + 1, float(rng.uniform(0.2, 2.5))) for k in range(n - 1)])
        ps = PointSet(tree, [tree.node_point(int(k)) for k in rng.integers(n // 2, n, 40)]
                      + random_points(rng, tree, 20))
        k = len(ps.distinct)
        seeds = list(range(k)) * 2
        radii = rng.uniform(0.0, 3.0, 2 * k)
        radii[rng.integers(0, 2 * k, 6)] = rng.uniform(200.0, 900.0, 6)
        got = covering._centers(ps, seeds, radii.tolist())
        want = [_walked(ps, i, r) for i, r in zip(seeds, radii.tolist())]
        assert [_bits(c) for c in got] == [_bits(c) for c in want]

    def test_cover_centers_like_walk(self, rng):
        for shape in ("random", "caterpillar"):
            tree = shaped_tree(rng, shape, 300)
            ps = PointSet(tree, random_points(rng, tree, 40))
            for r in (0.0, 0.4, 1.5, 6.0, 1e3):
                cover = min_ball_cover(ps, r)
                seeds = covering._greedy(ps, r, ps._array._span_rows)[0]
                assert [_bits(c) for c in cover.centers] == [
                    _bits(_walked(ps, i, r)) for i in seeds]

    def test_no_walk(self, monkeypatch, rng):
        """Covers and profiles place their centers without a walk."""
        def refuse(*args):
            raise AssertionError("walked a path")

        monkeypatch.setattr(MetricTree, "_point_along", refuse)
        monkeypatch.setattr(MetricTree, "_legs", refuse)
        for shape in ("random", "caterpillar", "path"):
            tree = shaped_tree(rng, shape, 400)
            ps = PointSet(tree, random_points(rng, tree, 24))
            for r in (0.0, 0.5, 2.0, 50.0):
                min_ball_cover(ps, r)
                min_diameter_partition(ps, 2.0 * r)
            beta_profile(ps, 6)
