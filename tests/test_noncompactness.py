"""Tests for measure reports, embedding invariance, and contraction ratios."""

import json

import numpy as np
import pytest

from metrictrees import (
    BadParams,
    ContractionReport,
    EmbeddingReport,
    EmptySet,
    ForeignPoint,
    MetricTree,
    NotIsometric,
    PointMap,
    PointSet,
    beta_profile,
    contraction_constants,
    embedding_invariance_check,
    gallery,
    measure_report,
    random_points,
    random_tree,
)
from metrictrees.reports import report_obj

from conftest import star_tips


class TestMeasureReport:
    def test_star4(self, star_doc):
        doc = star_doc(4)
        ps = PointSet(doc.tree, star_tips(doc))
        rep = measure_report(ps)
        assert rep.alpha.values == (2.0, 2.0, 2.0, 0.0)
        assert rep.beta.values == (1.0, 1.0, 1.0, 0.0)
        assert rep.beta_star.values == (2.0, 2.0, 2.0, 0.0)
        assert rep.passed
        assert rep.ratios[:3] == (2.0, 2.0, 2.0)
        assert rep.ratios[3] is None

    def test_ratios_are_alpha_over_beta(self, star_doc):
        # spokes of 3, so that alpha_n itself is not the ratio
        doc = star_doc(4, spoke_len=3.0)
        rep = measure_report(PointSet(doc.tree, star_tips(doc)))
        assert rep.alpha.values == (6.0, 6.0, 6.0, 0.0)
        assert rep.ratios == (2.0, 2.0, 2.0, None)

    def test_singleton_all_zero(self, simple_doc):
        ps = PointSet(simple_doc.tree, [simple_doc.points["B"]])
        rep = measure_report(ps, n_max=3)
        assert rep.alpha.values == (0.0, 0.0, 0.0)
        assert rep.passed

    def test_random_sets_pass(self, rng):
        for _ in range(40):
            tree = random_tree(rng, max_nodes=12)
            ps = PointSet(tree, random_points(rng, tree, 8))
            assert measure_report(ps).passed

    def test_empty(self, simple_doc):
        with pytest.raises(EmptySet):
            measure_report(PointSet(simple_doc.tree, []))

    @pytest.mark.parametrize("n_max", [2.5, True, 0])
    def test_bad_n_max(self, simple_doc, n_max):
        # 2.5 used to raise a bare TypeError, and True ran as n_max = 1
        with pytest.raises(BadParams, match="n_max must be an integer"):
            measure_report(PointSet(simple_doc.tree, [simple_doc.points["A"]]), n_max)

    def test_numpy_n_max_is_plain_int(self, simple_doc):
        rep = measure_report(PointSet(simple_doc.tree, [simple_doc.points["A"]]), np.int64(2))
        assert type(rep.n_max) is int


class TestEmbeddingInvariance:
    def test_identity(self, simple_doc):
        t = simple_doc.tree
        pts = list(simple_doc.points.values())
        rep = embedding_invariance_check(PointSet(t, pts), t, pts)
        assert rep.passed

    def test_grafted_host(self, rng):
        """Graft extra branches onto a copy of the tree; profiles of the
        embedded set must not move."""
        for _ in range(20):
            tree = random_tree(rng, max_nodes=8)
            n = tree.n_nodes
            extra = [
                (int(rng.integers(0, n)), n, float(rng.uniform(0.5, 2.0))),
                (n, n + 1, float(rng.uniform(0.5, 2.0))),
            ]
            host = MetricTree(n + 2, list(tree.edges) + extra, tol=tree.tol)
            pts = random_points(rng, tree, 6)
            images = [_copy_point(host, p) for p in pts]
            rep = embedding_invariance_check(PointSet(tree, pts), host, images)
            assert rep.passed

    def test_comb_into_larger_comb(self):
        small = gallery("comb_compact", n=4)
        big = gallery("comb_compact", n=8)
        pts = [small.points[f"tip{i}"] for i in range(1, 5)]
        images = [big.points[f"tip{i}"] for i in range(1, 5)]
        rep = embedding_invariance_check(PointSet(small.tree, pts), big.tree, images)
        assert rep.passed

    def test_not_isometric(self, star_doc):
        doc = star_doc(3)
        tips = star_tips(doc)
        images = [tips[0], tips[1], doc.points["hub"]]
        with pytest.raises(NotIsometric) as exc:
            embedding_invariance_check(PointSet(doc.tree, tips), doc.tree, images)
        assert exc.value.pair is not None

    def test_isometry_slack_is_relative(self):
        # a distance of 1000 may move by rel_eps * 1000 = 1e-6, well past
        # abs_eps, and the embedding still counts as isometric
        tree = MetricTree(2, [(0, 1, 1000.0)])
        ps = PointSet(tree, [tree.node_point(0), tree.node_point(1)])

        def check(moved):
            host = MetricTree(2, [(0, 1, 1000.0 + moved)])
            return embedding_invariance_check(ps, host, [host.node_point(0), host.node_point(1)])

        assert check(5e-7).passed
        with pytest.raises(NotIsometric):
            check(5e-6)

    def test_image_count_mismatch(self, star_doc):
        doc = star_doc(3)
        tips = star_tips(doc)
        with pytest.raises(BadParams):
            embedding_invariance_check(PointSet(doc.tree, tips), doc.tree, tips[:2])


def _copy_point(host, p):
    rec = p.record()
    if rec["kind"] == "node":
        return host.node_point(rec["node"])
    return host.edge_point(rec["u"], rec["v"], rec["offset"])


def _path_tree(k):
    return MetricTree(k + 1, [(i, i + 1, 1.0) for i in range(k)])


class TestContraction:
    def test_identity_map_ratio_one(self, star_doc):
        doc = star_doc(4)
        tips = star_tips(doc)
        pm = PointMap(doc.tree, doc.tree, [(p, p) for p in tips])
        assert len(pm) == 4
        rep = contraction_constants(pm)
        assert rep.ball_ratios == (1.0, 1.0, 1.0)
        assert rep.skipped == (4,)
        assert rep.k_ball == 1.0

    def test_collapsing_map_ratio_zero(self, star_doc):
        doc = star_doc(4)
        tips = star_tips(doc)
        hub = doc.points["hub"]
        pm = PointMap(doc.tree, doc.tree, [(p, hub) for p in tips])
        rep = contraction_constants(pm)
        assert set(rep.ball_ratios) == {0.0}
        assert rep.k_ball == 0.0

    def test_half_shrink_on_path(self):
        """Map every node of a path to the point at half its depth."""
        tree = _path_tree(8)
        pairs = [
            (tree.node_point(i), tree.point_at(tree.node_point(0), tree.node_point(8), i / 2))
            for i in range(9)
        ]
        pm = PointMap(tree, tree, pairs)
        rep = contraction_constants(pm)
        assert all(r == 0.5 for r in rep.ball_ratios)
        assert rep.k_ball == 0.5

    def test_subset_selection(self, star_doc):
        doc = star_doc(4)
        tips = star_tips(doc)
        pm = PointMap(doc.tree, doc.tree, [(p, p) for p in tips])
        rep = contraction_constants(pm, subset=[0, 1])
        assert rep.ns == (1,)
        with pytest.raises(BadParams, match=r"^subset index 9 is not an integer in 0\.\.3$"):
            contraction_constants(pm, subset=[9])

    @pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1", None, -1])
    def test_subset_indices_are_integers(self, star_doc, bad):
        # True used to read index 1 and 1.5 to raise a bare TypeError
        doc = star_doc(4)
        pm = PointMap(doc.tree, doc.tree, [(p, p) for p in star_tips(doc)])
        with pytest.raises(BadParams, match="subset index"):
            contraction_constants(pm, subset=[0, bad, 2])
        subset = [np.int64(0), np.intp(1), 2]
        assert contraction_constants(pm, subset=subset) == contraction_constants(pm, subset=[0, 1, 2])

    def test_duplicate_sources_rejected(self, star_doc):
        doc = star_doc(3)
        p = doc.points["tip1"]
        with pytest.raises(BadParams):
            PointMap(doc.tree, doc.tree, [(p, p), (p, doc.points["hub"])])


def _distinct(points):
    return list(dict.fromkeys(points))


# --------------------------------------------------------------------- #
# The report bodies that ran their own beta searches and doubled them,    #
# kept as the reference for the reports that read measure_report          #
# --------------------------------------------------------------------- #


def _reference_embedding_invariance_check(ps, host, images, n_max=None):
    if len(images) != len(ps.points):
        raise BadParams(
            f"need one image per point: {len(ps.points)} points, {len(images)} images"
        )
    for q in images:
        if q.tree is not host:
            raise ForeignPoint("image point does not belong to the host tree")
    if not ps.points:
        raise EmptySet("embedding check of an empty point set")
    tol = ps.tree.tol
    pts = ps.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d_src = ps.tree.distance(pts[i], pts[j])
            d_host = host.distance(images[i], images[j])
            if not tol.close(d_src, d_host):
                raise NotIsometric(
                    f"distance ({i}, {j}) changes from {d_src!r} to {d_host!r}",
                    pair=(i, j),
                )
    index = {p: k for k, p in enumerate(pts)}
    host_ps = PointSet(host, [images[index[p]] for p in ps.distinct])
    if n_max is None:
        n_max = len(ps.distinct)
    sa = tuple(2.0 * v for v in beta_profile(ps, n_max).values)
    ha = tuple(2.0 * v for v in beta_profile(host_ps, n_max).values)
    return EmbeddingReport(n_max, sa, ha, tuple(tol.close(sa[k], ha[k]) for k in range(n_max)))


def _reference_contraction_constants(pm, subset=None, n_max=None):
    idx = list(range(len(pm.pairs))) if subset is None else list(subset)
    if not idx:
        raise EmptySet("contraction ratios of an empty sample")
    for k in idx:
        if not 0 <= k < len(pm.pairs):
            raise BadParams(f"subset index {k} out of range")
    src = PointSet(pm.source, [pm.pairs[k][0] for k in idx])
    img = PointSet(pm.target, [pm.pairs[k][1] for k in idx])
    if n_max is None:
        n_max = len(src.distinct)
    tol = pm.source.tol
    b_src = beta_profile(src, n_max).values
    b_img = beta_profile(img, n_max).values
    a_src = tuple(2.0 * v for v in b_src)
    ns, ball_ratios, skipped = [], [], []
    for k in range(n_max):
        if a_src[k] <= tol.abs_eps:
            skipped.append(k + 1)
            continue
        ns.append(k + 1)
        ball_ratios.append(b_img[k] / b_src[k])
    return ContractionReport(
        tuple(ns),
        tuple(ball_ratios),
        tuple(skipped),
        max(ball_ratios, default=None),
    )


def _json(report):
    return json.dumps(report_obj(report), sort_keys=True)


class TestParityWithSeparateSearches:
    """300 random instances each, with and without explicit n_max and
    subsets, including hosts that merge two points closer than the
    tolerance."""

    def test_embedding(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            tree = random_tree(rng, max_nodes=8)
            n = tree.n_nodes
            extra = [(int(rng.integers(0, n)), n, float(rng.uniform(0.5, 2.0)))]
            host = MetricTree(n + 1, list(tree.edges) + extra, tol=tree.tol)
            pts = random_points(rng, tree, int(rng.integers(1, 7)))
            images = [_copy_point(host, p) for p in pts]
            if tree.edges and rng.random() < 0.2:
                # two source points closer than the tolerance, one host copy
                u, v = tree.edge_nodes(0)
                pts += [tree.edge_point(u, v, 0.1), tree.edge_point(u, v, 0.1 + 1e-12)]
                images += 2 * [host.edge_point(u, v, 0.1)]
            n_max = None if rng.random() < 0.5 else int(rng.integers(1, len(pts) + 2))
            ps = PointSet(tree, pts)
            assert _json(embedding_invariance_check(ps, host, images, n_max)) == _json(
                _reference_embedding_invariance_check(ps, host, images, n_max)
            )

    def test_not_isometric_message(self):
        """Random images: the same first pair and message, in Python float
        reprs, as the scalar pair loop."""
        rng = np.random.default_rng(303)
        raised = 0
        for _ in range(200):
            tree = random_tree(rng, max_nodes=8)
            host = random_tree(rng, max_nodes=8)
            pts = random_points(rng, tree, int(rng.integers(1, 7)))
            images = random_points(rng, host, len(pts))
            outcomes = []
            for check in (embedding_invariance_check, _reference_embedding_invariance_check):
                try:
                    check(PointSet(tree, pts), host, images)
                    outcomes.append(None)
                except NotIsometric as exc:
                    outcomes.append((str(exc), exc.pair, tuple(map(type, exc.pair))))
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is not None:
                raised += 1
                assert "float64" not in outcomes[0][0]
        assert raised > 150

    def test_contraction(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            src = random_tree(rng, max_nodes=9)
            dst = random_tree(rng, max_nodes=9)
            srcs = _distinct(random_points(rng, src, int(rng.integers(1, 7))))
            pm = PointMap(src, dst, list(zip(srcs, random_points(rng, dst, len(srcs)))))
            subset = None
            if rng.random() < 0.3:
                subset = sorted(set(rng.integers(0, len(srcs), size=len(srcs)).tolist()))
            n_max = None if rng.random() < 0.5 else int(rng.integers(1, len(srcs) + 2))
            assert _json(contraction_constants(pm, subset, n_max)) == _json(
                _reference_contraction_constants(pm, subset, n_max)
            )


class TestGuards:
    """Foreign points and empty sets are refused before any profile runs."""

    def test_point_map_foreign_points(self, simple_doc, star_doc):
        t, other = simple_doc.tree, star_doc(3).tree
        p, q = t.node_point(0), other.node_point(0)
        with pytest.raises(ForeignPoint, match="^source point belongs to a different tree$"):
            PointMap(t, t, [(p, p), (q, p)])
        with pytest.raises(ForeignPoint, match="^image point belongs to a different tree$"):
            PointMap(t, t, [(p, q)])

    def test_embedding_foreign_image(self, simple_doc, star_doc):
        t, other = simple_doc.tree, star_doc(3).tree
        pts = [t.node_point(0), t.node_point(1)]
        with pytest.raises(ForeignPoint, match="^image point does not belong to the host tree$"):
            embedding_invariance_check(PointSet(t, pts), t, [pts[0], other.node_point(1)])

    def test_embedding_empty_set(self, simple_doc):
        t = simple_doc.tree
        with pytest.raises(EmptySet, match="^embedding check of an empty point set$"):
            embedding_invariance_check(PointSet(t, []), t, [])

    @pytest.mark.parametrize("pairs, subset", [([], None), ("nodes", [])])
    def test_contraction_empty_sample(self, simple_doc, pairs, subset):
        t = simple_doc.tree
        if pairs == "nodes":
            pairs = [(t.node_point(i), t.node_point(i)) for i in range(t.n_nodes)]
        with pytest.raises(EmptySet, match="^contraction ratios of an empty sample$"):
            contraction_constants(PointMap(t, t, pairs), subset)
