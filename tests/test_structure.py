"""Tests for leaves, leaf decompositions, and Lifschitz constructions."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from metrictrees import structure
from metrictrees import (
    BadParams,
    CounterexampleRecord,
    MetricTree,
    PointSet,
    PreconditionViolation,
    Tolerance,
    circumcenter,
    diameter,
    edge_samples,
    kappa_probe,
    leaf_cover_check,
    leaf_through,
    leaves,
    lifschitz_counterexample,
    lifschitz_witness,
    random_point,
    random_points,
    random_tree,
)
from metrictrees.reports import report_obj
from metrictrees.structure import _MAX_R



def _path_tree(k, step=1.0):
    return MetricTree(k + 1, [(i, i + 1, step) for i in range(k)])


class TestLeaves:
    def test_path(self):
        t = _path_tree(2)
        assert {p.node for p in leaves(t)} == {0, 2}

    def test_star(self, star_doc):
        doc = star_doc(5)
        assert {p.node for p in leaves(doc.tree)} == {1, 2, 3, 4, 5}

    def test_simple_fixture(self, simple_doc):
        got = {p.node for p in leaves(simple_doc.tree)}
        assert got == {simple_doc.points[k].node for k in "ACD"}

    def test_single_node(self):
        t = MetricTree(1, [])
        assert [p.node for p in leaves(t)] == [0]

    def test_degree_one_exactly(self, rng):
        for _ in range(20):
            tree = random_tree(rng, max_nodes=10)
            got = {p.node for p in leaves(tree)}
            want = {i for i in range(tree.n_nodes) if tree.degree(i) == 1}
            assert got == (want or {0})

    def test_removing_a_leaf_updates_predictably(self, rng):
        for _ in range(20):
            tree = random_tree(rng, max_nodes=10)
            if tree.n_nodes < 3:
                continue
            drop = max(p.node for p in leaves(tree))
            (nbr, _e) = tree.neighbors(drop)[0]
            keep = [i for i in range(tree.n_nodes) if i != drop]
            relabel = {old: new for new, old in enumerate(keep)}
            edges = [
                (relabel[u], relabel[v], l)
                for u, v, l in tree.edges
                if drop not in (u, v)
            ]
            smaller = MetricTree(tree.n_nodes - 1, edges)
            got = {p.node for p in leaves(smaller)}
            want = {relabel[p.node] for p in leaves(tree) if p.node != drop}
            if smaller.degree(relabel[nbr]) == 1:
                want.add(relabel[nbr])
            assert got == want


class TestLeafThrough:
    def test_base_point_returns_first_leaf(self, star_doc):
        doc = star_doc(3)
        hub = doc.points["hub"]
        f = leaf_through(hub, hub)
        assert f == leaves(doc.tree)[0]

    def test_path(self):
        t = _path_tree(2)
        f = leaf_through(t.node_point(0), t.node_point(1))
        assert f.node == 2

    def test_simple_tree_branch(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        m = t.edge_point(1, 2, 0.5)  # interior of B--C
        assert leaf_through(p["A"], m) == p["C"]

    def test_smallest_id_branch(self, star_doc):
        # from tip1 through the hub, every other spoke leads to a leaf;
        # the walk takes the smallest node id
        doc = star_doc(4)
        assert leaf_through(doc.points["tip1"], doc.points["hub"]) == doc.points["tip2"]
        assert leaf_through(doc.points["tip2"], doc.points["hub"]) == doc.points["tip1"]

    def test_m_already_a_leaf(self, simple_doc):
        t, p = simple_doc.tree, simple_doc.points
        assert leaf_through(p["A"], p["C"]) == p["C"]

    def test_edge_below_tolerance(self):
        # node 1 is within tolerance of node 0, so betweenness cannot tell
        # which neighbor of node 1 leads back toward node 0
        t = MetricTree(3, [(0, 1, 1e-12), (1, 2, 1.0)])
        a = t.node_point(0)
        assert leaf_through(a, t.node_point(1)) == t.node_point(2)
        assert leaf_cover_check(t, a, [t.node_point(i) for i in range(3)]) == (True, None)

    def test_random_witnesses(self, rng):
        for _ in range(60):
            tree = random_tree(rng, max_nodes=10)
            a = random_point(rng, tree)
            m = random_point(rng, tree)
            f = leaf_through(a, m)
            assert tree.degree(f.node) <= 1 or tree.n_nodes == 1
            assert tree.is_between(a, m, f)


class TestLeafCover:
    def test_star_from_hub(self, star_doc):
        doc = star_doc(3)
        pts = edge_samples(doc.tree, per_edge=4)
        ok, bad = leaf_cover_check(doc.tree, doc.points["hub"], pts)
        assert ok and bad is None

    def test_comb_from_origin(self):
        from metrictrees import gallery

        doc = gallery("comb_noncompact", n=5)
        pts = edge_samples(doc.tree, per_edge=3)
        ok, _ = leaf_cover_check(doc.tree, doc.points["origin"], pts)
        assert ok

    def test_witness_that_is_no_leaf_is_reported(self, simple_doc, monkeypatch):
        # mutant: B (node 1) is its own witness, on the geodesic from A but
        # no leaf; tests/test_falsifiable.py holds a leaf that is off it
        monkeypatch.setattr(structure, "leaf_through", lambda a, m: m)
        t = simple_doc.tree
        nodes = [t.node_point(i) for i in range(t.n_nodes)]
        assert leaf_cover_check(t, nodes[0], nodes) == (False, nodes[1])

    def test_random_trees_dense(self, rng):
        for _ in range(25):
            tree = random_tree(rng, max_nodes=10)
            a = random_point(rng, tree)
            ok, _ = leaf_cover_check(tree, a, edge_samples(tree, per_edge=3))
            assert ok


class TestLifschitzWitness:
    def test_path_example(self):
        t = _path_tree(10)
        x, y = t.node_point(0), t.node_point(10)
        w, verification = lifschitz_witness(t, x, y, 4.0, 0.25)
        assert verification.passed
        # B(x; 5) and B(y; 6) meet in [4, 5], which touches edges 3-4, 4-5
        # and 5-6
        assert (verification.checked, verification.applicable) == (10, 3)
        assert w.a == 1.25 and w.b == 1.5
        assert t.distance(x, w.z) == pytest.approx(1.0)

    def test_vacuous_when_no_point_applies(self, star_doc):
        # B(tip1; 1.9 * 0.9) reaches 0.71 up the spoke of tip2, and
        # B(tip2; 0.2 * 0.9) only 0.18 down it: the balls do not meet
        doc = star_doc(3)
        t = doc.tree
        x, y = doc.points["tip1"], doc.points["tip2"]
        _w, verification = lifschitz_witness(t, x, y, 0.9, 0.9)
        assert (verification.checked, verification.applicable) == (3, 0)
        assert verification.passed

    def test_preconditions(self, star_doc):
        doc = star_doc(3)
        t = doc.tree
        x, y = doc.points["tip1"], doc.points["tip2"]
        with pytest.raises(PreconditionViolation):
            lifschitz_witness(t, x, y, 2.5, 0.5)  # d(x, y) = 2 <= r
        with pytest.raises(PreconditionViolation):
            lifschitz_witness(t, x, y, 1.0, 1.5)
        with pytest.raises(PreconditionViolation):
            lifschitz_witness(t, x, y, -1.0, 0.5)
        with pytest.raises(PreconditionViolation, match="^r must be positive"):
            lifschitz_witness(t, x, y, True, 0.5)  # d(x, y) = 2 > 1
        with pytest.raises(PreconditionViolation, match="^eps must lie"):
            lifschitz_witness(t, x, y, 1.0, "0.5")

    def test_random_trees(self, rng):
        done = 0
        while done < 60:
            tree = random_tree(rng, max_nodes=10)
            x, y = random_points(rng, tree, 2)
            d = tree.distance(x, y)
            if d <= 1e-9:
                continue
            r = float(rng.uniform(0.05, 0.95)) * d
            eps = float(rng.uniform(0.05, 0.95))
            _w, verification = lifschitz_witness(tree, x, y, r, eps)
            assert verification.passed
            done += 1


class TestLifschitzCounterexample:
    def test_moderate_a(self):
        rec = lifschitz_counterexample(1.0, 1.5)
        assert rec.containment_ok
        assert rec.uv_diameter > 2.0
        assert not rec.clamped

    def test_large_a_clamps_to_endpoint(self):
        rec = lifschitz_counterexample(1.0, 3.8)
        assert rec.clamped
        assert rec.u == rec.w
        assert rec.containment_ok
        assert rec.uv_diameter == pytest.approx(4.0)

    def test_a_three(self):
        # d(y, x) lives in (r, min(a,2)r), so u = x - a*r stays inside the
        # path for a = 3; the construction verifies without clamping
        rec = lifschitz_counterexample(1.0, 3.0)
        assert rec.containment_ok

    def test_scales_with_r(self):
        for r in (0.25, 2.0, 7.5):
            rec = lifschitz_counterexample(r, 1.8)
            assert rec.containment_ok
            assert rec.uv_diameter > 2.0 * r

    def test_bad_params(self):
        with pytest.raises(BadParams):
            lifschitz_counterexample(0.0, 1.5)
        with pytest.raises(BadParams):
            lifschitz_counterexample(-1.0, 1.5)
        with pytest.raises(BadParams):
            lifschitz_counterexample(1.0, 1.0)
        with pytest.raises(BadParams, match="^r must be"):
            lifschitz_counterexample("1", 1.5)
        with pytest.raises(BadParams, match="^a must"):
            lifschitz_counterexample(1.0, "2")

    def test_non_finite_params_name_themselves(self):
        # an infinite r once surfaced as the internal path edge's
        # NonpositiveEdgeLength, and an infinite a passed with a = inf
        with pytest.raises(BadParams, match="^r must be"):
            lifschitz_counterexample(float("inf"), 1.5)
        with pytest.raises(BadParams, match="^r must be"):
            lifschitz_counterexample(1e308, 1.5)  # the path, 4*r, overflows
        with pytest.raises(BadParams, match="^r must be"):
            lifschitz_counterexample(4e307, 1.5)  # sums of distances on it would
        with pytest.raises(BadParams, match="^a must"):
            lifschitz_counterexample(1.0, float("inf"))
        with pytest.raises(BadParams, match="^a must"):
            lifschitz_counterexample(1.0, 10**400)

    def test_largest_r_verifies(self):
        for r in (1e305, _MAX_R):  # the path, 4*r, and its distance sums stay finite
            for a in (1.5, 3.8):
                rec = lifschitz_counterexample(r, a)
                assert rec.containment_ok
                assert math.isfinite(rec.tree.distance(rec.u, rec.v))

    def test_r_below_the_tolerance_is_rejected(self):
        # d(u, v) - 2r must exceed twice the slack at 2r, which is at least
        # abs_eps = 1e-9; here it is 1.25e-9, 5e-13 and 3e-6, the last above
        # twice the slack at r = 1000 (1e-6) but not at 2r
        for r, a in ((5e-9, 1.5), (1.0, 1 + 1e-12), (1000.0, 1 + 6e-9)):
            with pytest.raises(BadParams, match="^r = .* a = .* too small"):
                lifschitz_counterexample(r, a)
        assert lifschitz_counterexample(1e-8, 1.5).containment_ok

    def test_numpy_numbers_accepted(self):
        assert lifschitz_counterexample(np.float32(1.0), np.int64(2)).containment_ok

    def test_bools_rejected(self):
        with pytest.raises(BadParams):
            lifschitz_counterexample(True, 1.5)
        with pytest.raises(BadParams):
            lifschitz_counterexample(1.0, np.True_)

    def test_containment_compares_both_ends_with_both_radii(self, monkeypatch):
        seen = []
        monkeypatch.setattr(Tolerance, "leq", lambda self, a, b: seen.append((a, b)) or True)
        rec = lifschitz_counterexample(1.0, 1.5)
        t = rec.tree
        expected = [(t.distance(p, c), radius)
                    for p in (rec.u, rec.v) for c, radius in ((rec.x, 1.5), (rec.y, 2.0))]
        assert np.allclose(seen, expected, rtol=0.0, atol=1e-12)

    def test_same_record_as_reference(self):
        """A 20 x 15 grid of r and a, clamped and unclamped; on every
        record the dense sample confirms d(u, v) > 2r and that no sampled
        center holds [u, v] in a radius-r ball."""
        for r in np.geomspace(0.01, 100.0, 20).tolist():
            for a in np.linspace(1.01, 4.5, 15).tolist():
                rec = lifschitz_counterexample(r, a)
                ref, diameter_exceeds, no_small_ball = _reference_lifschitz_counterexample(r, a)
                assert diameter_exceeds and no_small_ball
                assert rec.tree.edges == ref.tree.edges
                assert json.dumps(report_obj(rec), sort_keys=True) == json.dumps(
                    report_obj(ref), sort_keys=True
                )


def _reference_lifschitz_counterexample(r, a, samples=64):
    """``lifschitz_counterexample`` as it was, with nodes listed twice
    among the small-ball candidates, for valid r and a: the record and its
    two sampled facts, d(u, v) > 2r + slack and no candidate center within
    r + slack of both ends."""
    tree = MetricTree(2, [(0, 1, 4.0 * r)])
    w = tree.node_point(0)
    v = tree.node_point(1)
    y = tree.edge_point(0, 1, 2.0 * r)
    t = 0.5 * (r + min(a, 2.0) * r)
    x = tree.edge_point(0, 1, 2.0 * r + t)
    u_coord = 2.0 * r + t - a * r
    clamped = u_coord <= 0.0
    u = w if clamped else tree.edge_point(0, 1, u_coord)
    seg = tree.segment(u, v)
    pts = seg.sample(max(samples, 2))
    tolv = tree.tol
    containment_ok = all(
        tolv.leq(tree.distance(p, x), a * r) and tolv.leq(tree.distance(p, y), 2.0 * r)
        for p in pts
    )
    uv_diameter = seg.total_length
    slack = tolv.slack(2.0 * r)
    diameter_exceeds = uv_diameter > 2.0 * r + slack
    candidates = [tree.node_point(i) for i in range(tree.n_nodes)]
    candidates += edge_samples(tree, per_edge=max(samples, 8))
    candidates += [x, y, u, v]
    no_small_ball = all(
        max(tree.distance(z, p) for p in (pts[0], pts[-1])) > r + slack
        for z in candidates
    )
    record = CounterexampleRecord(tree, r, a, w, v, y, x, u, clamped, uv_diameter,
                                  containment_ok)
    return record, diameter_exceeds, no_small_ball


class TestKappaProbe:
    def test_random_tree_consistent(self, rng):
        tree = random_tree(rng, max_nodes=10)
        rep = kappa_probe(tree, trials=30, rng=5)
        assert rep.consistent
        assert rep.witness_trials > 0

    def test_fixed_eps(self, star_doc):
        doc = star_doc(4)
        rep = kappa_probe(doc.tree, trials=25, rng=1, eps=0.5)
        assert rep.consistent

    def test_single_node_vacuous(self):
        t = MetricTree(1, [])
        rep = kappa_probe(t, trials=10, rng=0)
        assert rep.vacuous
        assert rep.consistent

    def test_determinism(self, star_doc):
        doc = star_doc(3)
        r1 = kappa_probe(doc.tree, trials=15, rng=42)
        r2 = kappa_probe(doc.tree, trials=15, rng=42)
        assert r1 == r2

    def test_numpy_seed(self, rng):
        tree = random_tree(rng, max_nodes=10)
        assert report_obj(kappa_probe(tree, 3, rng=np.int64(5))) == report_obj(
            kappa_probe(tree, 3, rng=5)
        )

    def test_bad_trials(self, star_doc):
        with pytest.raises(BadParams):
            kappa_probe(star_doc(3).tree, trials=0)

    @pytest.mark.parametrize("trials", [True, 2.5, 3.0])
    def test_non_integer_trials(self, star_doc, trials):
        # True used to run one trial and report "trials": true; 2.5 raised TypeError
        with pytest.raises(BadParams, match="trials must be an integer"):
            kappa_probe(star_doc(3).tree, trials=trials)

    @pytest.mark.parametrize("seed", [-1, -(2**70), [1, -2], 1.5, "abc"])
    def test_rejected_seed(self, star_doc, seed):
        # np.random.default_rng rejects these with ValueError or TypeError
        with pytest.raises(BadParams, match="^bad seed"):
            kappa_probe(star_doc(3).tree, trials=2, rng=seed)

    @pytest.mark.parametrize("eps", [5, 0.0, 1.0, -0.5, math.nan])
    def test_fixed_eps_checked_before_trials(self, star_doc, eps):
        # a single-node tree runs no witness; it rejects eps as a larger
        # tree's lifschitz_witness does
        message = rf"^eps must lie in \(0, 1\), got {float(eps)!r}$"
        for tree in (MetricTree(1, []), star_doc(3).tree):
            with pytest.raises(PreconditionViolation, match=message):
                kappa_probe(tree, trials=3, rng=0, eps=eps)

    def test_failures_are_counted(self, star_doc, monkeypatch):
        failed = SimpleNamespace(passed=False, containment_ok=False)
        monkeypatch.setattr(structure, "lifschitz_witness", lambda *args: (None, failed))
        monkeypatch.setattr(structure, "lifschitz_counterexample", lambda **kwargs: failed)
        rep = kappa_probe(star_doc(3).tree, trials=7, rng=0)
        assert (rep.witness_trials, rep.witness_failures) == (7, 7)
        assert (rep.counterexample_trials, rep.counterexample_failures) == (7, 7)
        assert not rep.consistent

    @pytest.mark.parametrize("half", ["lifschitz_witness", "lifschitz_counterexample"])
    def test_either_half_failing_alone_is_inconsistent(self, star_doc, monkeypatch, half):
        failed = SimpleNamespace(passed=False, containment_ok=False)
        mutant = (lambda *args: (None, failed)) if half == "lifschitz_witness" else (
            lambda **kwargs: failed)
        monkeypatch.setattr(structure, half, mutant)
        rep = kappa_probe(star_doc(3).tree, trials=7, rng=0)
        assert rep.witness_failures + rep.counterexample_failures == 7
        assert not rep.consistent

    def test_coarse_tolerance(self):
        """The counterexample template is a fixed path, not the tree: its
        draws of r and a resolve at the default tolerance whatever the
        tree's, so a coarse one does not reject them as too small."""
        tree = MetricTree(3, [(0, 1, 1.0), (1, 2, 2.0)], tol=Tolerance(0.01, 0.01))
        for seed in range(6):
            rep = kappa_probe(tree, trials=60, rng=seed)
            assert rep.consistent
            assert rep.counterexample_trials == 60


class TestEnclosingBallBound:
    def test_half_diameter_beats_every_sub2_fraction(self, rng):
        """The circumball radius diam/2 is at most diam/b for any b < 2."""
        for _ in range(40):
            tree = random_tree(rng, max_nodes=10)
            ps = PointSet(tree, random_points(rng, tree, 6))
            d, _ = diameter(ps)
            m, r = circumcenter(ps)
            worst = max(tree.distance(m, q) for q in ps.distinct)
            b = float(rng.uniform(0.05, 1.95))
            if d > 0:
                assert worst <= d / b + 1e-9
                assert worst == pytest.approx(0.5 * d, abs=1e-9)