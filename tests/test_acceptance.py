"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Shared instance family: random trees up to 30 nodes with point sets up to 8
points; profile identities are cross-checked against the exhaustive
partition oracle on every instance.
"""

import itertools

import numpy as np
import pytest

from metrictrees import (
    PointMap,
    PointSet,
    alpha_profile,
    ball_diameter,
    beta_profile,
    beta_star_profile,
    check_four_point,
    circumcenter,
    contraction_constants,
    diameter,
    edge_samples,
    gallery,
    leaf_through,
    lifschitz_counterexample,
    lifschitz_witness,
    matrix_from_points,
    min_ball_cover,
    oracle_min_cover,
    oracle_profiles,
    random_point,
    random_points,
    random_tree,
    tree_from_distances,
)

TOL = 1e-9
N_INSTANCES = 500


def _report(num, desc, failures, total):
    status = "PASS" if failures == 0 else "FAIL"
    print(f"ACCEPTANCE {status} [{num:2d}] {desc}: {failures} failures / {total} checks")
    assert failures == 0, f"criterion {num}: {failures} failures out of {total}"


def _instance(rng):
    tree = random_tree(rng, n_nodes=int(rng.integers(2, 31)))
    k = int(rng.integers(1, 9))
    return PointSet(tree, random_points(rng, tree, k))


@pytest.fixture(scope="module")
def instance_profiles():
    """Profiles plus oracle values for the shared 500-instance family."""
    rng = np.random.default_rng(1009)
    out = []
    for _ in range(N_INSTANCES):
        ps = _instance(rng)
        n_max = len(ps.points)
        a = alpha_profile(ps, n_max)
        b = beta_profile(ps, n_max).values
        bs = beta_star_profile(ps, n_max)
        oa, ob = oracle_profiles(ps, n_max)
        out.append((ps, a, b, bs, oa, ob))
    return out


def test_criterion_01_alpha_twice_beta(instance_profiles):
    """alpha_n and beta_n equal the oracle's alpha_n = 2*beta_n, and each
    alpha witness is checked without the profile search: at most n blocks
    that partition the points, each of pairwise diameter at most the value."""
    failures = checks = 0
    for ps, a, b, _bs, oa, ob in instance_profiles:
        tree, pts = ps.tree, ps.points
        for k, (value, part) in enumerate(zip(a.values, a.witnesses)):
            checks += 1
            if abs(value - oa[k]) > TOL or abs(b[k] - ob[k]) > TOL:
                failures += 1
            elif len(part.blocks) > k + 1 or sorted(
                i for block in part.blocks for i in block
            ) != list(range(len(pts))):
                failures += 1
            elif any(
                tree.distance(pts[i], pts[j]) > value + TOL
                for block in part.blocks
                for i, j in itertools.combinations(block, 2)
            ):
                failures += 1
    _report(1, "alpha_n = oracle alpha_n = 2*beta_n, witnesses feasible", failures, checks)


def test_criterion_02_beta_star_twice_beta(instance_profiles):
    """beta*_n is checked from both sides without the profile search: it
    equals the oracle's alpha_n = 2*beta_n (balls of diameter <= b induce
    blocks of diameter <= b), and each witness is a feasible cover, with at
    most n balls, every point inside its ball and every ball's diameter at
    most the value."""
    failures = checks = 0
    for ps, _a, _b, bs, oa, _ob in instance_profiles:
        tree = ps.tree
        for k, (value, cover) in enumerate(zip(bs.values, bs.witnesses)):
            checks += 1
            if abs(value - oa[k]) > TOL or len(cover.centers) > k + 1:
                failures += 1
            elif any(
                tree.distance(cover.centers[ci], p) > cover.radius + TOL
                for p, ci in zip(ps.points, cover.assignment)
            ):
                failures += 1
            elif any(ball_diameter(tree, c, cover.radius) > value + TOL for c in cover.centers):
                failures += 1
    _report(2, "beta*_n = oracle alpha_n, witnesses feasible", failures, checks)


def test_criterion_03_circumcenter_exactness(instance_profiles):
    failures = checks = 0
    for ps, *_rest in instance_profiles:
        checks += 1
        tree = ps.tree
        d, _pair = diameter(ps)
        m, r = circumcenter(ps)
        worst = max(tree.distance(m, q) for q in ps.distinct)
        if abs(worst - 0.5 * d) > TOL:
            failures += 1
            continue
        candidates = [tree.node_point(i) for i in range(tree.n_nodes)]
        candidates.extend(ps.distinct)
        for p, q in itertools.combinations(ps.distinct, 2):
            candidates.append(tree.midpoint(p, q))
        best = min(
            max(tree.distance(c, q) for q in ps.distinct) for c in candidates
        )
        if best < r - TOL:
            failures += 1
    _report(3, "circumradius = diameter/2 and candidate-optimal", failures, checks)


def test_criterion_04_greedy_cover_optimality():
    rng = np.random.default_rng(1013)
    failures = 0
    for _ in range(N_INSTANCES):
        ps = _instance(rng)
        d, _ = diameter(ps)
        r = float(rng.uniform(0.0, 0.7)) * (d + 0.2)
        if len(min_ball_cover(ps, r).centers) != oracle_min_cover(ps, r, "ball"):
            failures += 1
    _report(4, "greedy cover count = exhaustive oracle count", failures, N_INSTANCES)


def test_criterion_05_median_characterization():
    rng = np.random.default_rng(1019)
    failures = 0
    total = 1000
    for _ in range(total):
        tree = random_tree(rng, max_nodes=12)
        x, y, z = random_points(rng, tree, 3)
        w = tree.median(x, y, z)
        ok = tree.is_between(x, w, y)
        inter = tree.segment(x, z).intersect(tree.segment(y, z))
        wz = tree.segment(w, z)
        ok = ok and inter is not None
        if ok:
            # [x,z] ∩ [y,z] = [w,z]: same span, same endpoints
            ok = abs(inter.total_length - wz.total_length) <= TOL
            ok = ok and wz.contains(inter.a) and wz.contains(inter.b)
            ok = ok and inter.contains(w) and inter.contains(z)
            # [x,y] ∩ [w,z] = {w}
            pinch = tree.segment(x, y).intersect(wz)
            ok = ok and pinch is not None
            ok = ok and pinch.total_length <= TOL
            ok = ok and tree.distance(pinch.a, w) <= TOL
        if not ok:
            failures += 1
    _report(5, "median intersection postconditions", failures, total)


def test_criterion_06_ball_convexity_and_midpoint_ball():
    rng = np.random.default_rng(1021)
    failures = 0
    total = 1000
    for _ in range(total):
        tree = random_tree(rng, max_nodes=12)
        a, x, y = random_points(rng, tree, 3)
        r = max(tree.distance(a, x), tree.distance(a, y)) + float(
            rng.uniform(0.05, 1.0)
        )
        ok = all(tree.distance(p, a) < r for p in tree.segment(x, y).sample(8))
        m = tree.midpoint(x, y)
        half = 0.5 * tree.distance(x, y)
        for _k in range(4):
            p = random_point(rng, tree)
            if tree.distance(p, m) <= half and tree.distance(p, a) >= r:
                ok = False
        if not ok:
            failures += 1
    _report(6, "ball convexity and midpoint-ball containment", failures, total)


def test_criterion_07_lifschitz_sandwich():
    rng = np.random.default_rng(1031)
    failures = 0
    witness_total = 500
    done = 0
    while done < witness_total:
        tree = random_tree(rng, max_nodes=10)
        x, y = random_points(rng, tree, 2)
        d = tree.distance(x, y)
        if d <= 1e-9:
            continue
        r = float(rng.uniform(0.05, 0.95)) * d
        eps = float(rng.uniform(0.05, 0.95))
        _w, verification = lifschitz_witness(tree, x, y, r, eps)
        if not verification.passed:
            failures += 1
        done += 1
    cex_total = 100
    for _ in range(cex_total):
        rec = lifschitz_counterexample(
            r=float(rng.uniform(0.1, 8.0)), a=float(rng.uniform(1.05, 4.0))
        )
        # [u, v] is longer than 2r, and its midpoint, the best center for
        # it, lies farther than r from u: no radius-r ball holds it
        tree, u, v = rec.tree, rec.u, rec.v
        slack = tree.tol.slack(2.0 * rec.r)
        long_enough = tree.distance(u, v) > 2.0 * rec.r + slack
        no_small_ball = tree.distance(tree.midpoint(u, v), u) > rec.r + slack
        if not (rec.containment_ok and long_enough and no_small_ball):
            failures += 1
    _report(
        7,
        "Lifschitz witnesses pass for b<2; b=2 obstruction verified",
        failures,
        witness_total + cex_total,
    )


def test_criterion_08_leaf_decomposition():
    rng = np.random.default_rng(1033)
    failures = checks = 0
    leaf_nodes = None
    for _ in range(200):
        tree = random_tree(rng, max_nodes=14)
        a = random_point(rng, tree)
        leaf_nodes = {
            i for i in range(tree.n_nodes) if tree.degree(i) <= 1
        }
        for m in edge_samples(tree, per_edge=3):
            checks += 1
            f = leaf_through(a, m)
            if f.node not in leaf_nodes or not tree.is_between(a, m, f):
                failures += 1
    _report(8, "every point lies on a base-to-leaf geodesic", failures, checks)


def test_criterion_09_contraction_equivalence():
    """k-set = k-ball on trees: each reported ball ratio matches both the
    set ratio and the ball ratio of the exhaustive oracle within TOL.  The
    oracle's partition and cover searches share no code with the profile
    search, so the equality is checked, not copied; ``ns``/``skipped`` must
    follow the oracle's alpha_n > abs_eps."""
    rng = np.random.default_rng(1039)
    failures = checks = 0
    for _ in range(100):
        src = random_tree(rng, max_nodes=12)
        dst = random_tree(rng, max_nodes=12)
        srcs = list(dict.fromkeys(random_points(rng, src, int(rng.integers(2, 8)))))
        imgs = random_points(rng, dst, len(srcs))
        rep = contraction_constants(PointMap(src, dst, list(zip(srcs, imgs))))
        n_max = len(srcs)
        sa, sb = oracle_profiles(PointSet(src, srcs), n_max)
        ia, ib = oracle_profiles(PointSet(dst, imgs), n_max)
        valid = [n for n in range(1, n_max + 1) if sa[n - 1] > src.tol.abs_eps]
        checks += 1
        if list(rep.ns) != valid or sorted(rep.skipped + rep.ns) != list(range(1, n_max + 1)):
            failures += 1
            continue
        for n, rb in zip(rep.ns, rep.ball_ratios):
            checks += 2
            if abs(rb - ia[n - 1] / sa[n - 1]) > TOL:
                failures += 1
            if abs(rb - ib[n - 1] / sb[n - 1]) > TOL:
                failures += 1
    _report(9, "ball ratio = oracle set ratio = oracle ball ratio", failures, checks)


def test_criterion_10_star_fixture_regression():
    failures = checks = 0
    for n in range(3, 9):
        doc = gallery("star", n=n)
        tips = [doc.points[f"tip{i}"] for i in range(1, n + 1)]
        values = beta_profile(PointSet(doc.tree, tips), n).values
        for k in range(1, n):
            checks += 1
            if abs(values[k - 1] - 1.0) > TOL:
                failures += 1
        checks += 1
        if abs(values[n - 1]) > TOL:
            failures += 1
    _report(10, "star tips: beta_k = 1 below n, beta_n = 0", failures, checks)


def test_criterion_11_reconstruction_roundtrip():
    rng = np.random.default_rng(1049)
    failures = 0
    worst = 0.0
    for _ in range(200):
        tree = random_tree(rng, max_nodes=16)
        k = int(rng.integers(2, 9))
        pts = random_points(rng, tree, k)
        matrix = matrix_from_points(tree, pts)
        ok, _quad = check_four_point(matrix)
        if not ok:
            failures += 1
            continue
        rebuilt, named = tree_from_distances(matrix)
        again = matrix_from_points(rebuilt, [named[l] for l in matrix.labels])
        dev = float(np.abs(again.values - matrix.values).max(initial=0.0))
        worst = max(worst, dev)
        if dev > 1e-6:
            failures += 1
    print(f"    (worst reconstruction deviation: {worst:.3e})")
    _report(11, "matrix -> tree -> matrix deviation <= 1e-6", failures, 200)


def test_criterion_12_betweenness_transitivity():
    rng = np.random.default_rng(1051)
    failures = 0
    total = 1000
    for _ in range(total):
        tree = random_tree(rng, max_nodes=12)
        a, d = random_points(rng, tree, 2)
        span = tree.distance(a, d)
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2) * span)
        b = tree.point_at(a, d, float(t1))
        c = tree.point_at(a, d, float(t2))
        # hypothesis holds by construction: abc and acd
        if not (tree.is_between(a, b, c) and tree.is_between(a, c, d)):
            failures += 1
            continue
        if not (tree.is_between(a, b, d) and tree.is_between(b, c, d)):
            failures += 1
    _report(12, "betweenness transitivity on qualifying quadruples", failures, total)
