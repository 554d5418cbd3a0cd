"""Leaves, leaf decompositions, and Lifschitz-characteristic constructions.

A finite metric tree decomposes as the union of the geodesics from any base
point to its leaves; ``leaf_through`` produces the witnessing leaf for a
given point.  The Lifschitz characteristic of a metric tree equals 2:

* for every b < 2 there is an a > 1 such that whenever d(x, y) > r, the
  intersection of the closed balls B(x; a*r) and B(y; b*r) fits inside a
  single closed ball of radius r (``lifschitz_witness`` constructs the
  center and verifies the containment on supplied test points);
* at b = 2 this fails: ``lifschitz_counterexample`` builds a path tree and
  a subsegment of diameter > 2r lying inside both balls, which therefore
  fits in no radius-r ball.

``kappa_probe`` runs randomized trials of both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MetricTree, PointArray, Tolerance, TreePoint
from .errors import BadParams, PreconditionViolation
from .sampling import edge_samples, random_point

__all__ = [
    "LeafSet",
    "LifschitzWitness",
    "WitnessVerification",
    "CounterexampleRecord",
    "KappaReport",
    "leaves",
    "leaf_through",
    "leaf_cover_check",
    "lifschitz_witness",
    "lifschitz_counterexample",
    "kappa_probe",
]


@dataclass(frozen=True)
class LeafSet:
    """The final points of a tree: nodes of degree one.

    No interior point of an edge qualifies, since it lies strictly between
    the edge's endpoints.  A single-node tree's unique node is a leaf.
    """

    points: tuple[TreePoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def leaves(tree: MetricTree) -> LeafSet:
    if tree.n_nodes == 1:
        return LeafSet((tree.node_point(0),))
    return LeafSet(
        tuple(tree.node_point(i) for i in range(tree.n_nodes) if tree.degree(i) == 1)
    )


def leaf_through(a: TreePoint, m: TreePoint) -> TreePoint:
    """A leaf f with m on the geodesic from a to f.

    Walks from m directly away from a, taking the smallest-id branch at
    every fork, until a degree-one node is reached.  When m == a every leaf
    qualifies and the first by node index is returned.
    """
    tree = a.tree
    tree._own(m)
    if m == a:
        return leaves(tree).points[0]
    if m.node is not None:
        current = m.node
    else:
        # leave the edge through the endpoint on the far side from a
        u, v = tree.edge_nodes(m.edge)
        current = v if tree.is_between(a, m, tree.node_point(v)) else u
    # each step picks a neighbor strictly farther from a, so m stays between
    # a and the walk by betweenness transitivity and the walk must end at a
    # degree-one node
    while True:
        cur = tree.node_point(current)
        nxt = None
        for nbr, _e in tree.neighbors(current):
            if tree.is_between(a, cur, tree.node_point(nbr)):
                if nxt is None or nbr < nxt:
                    nxt = nbr
        if nxt is None:
            return cur
        current = nxt


def leaf_cover_check(
    tree: MetricTree, a: TreePoint, points: Sequence[TreePoint]
) -> tuple[bool, TreePoint | None]:
    """Check every sampled point admits a verified leaf witness.

    Returns (True, None) when each point m yields a leaf f with m between
    a and f; otherwise (False, offending point).  Finite trees always pass.
    """
    tree._own(a)
    leaf_nodes = {p.node for p in leaves(tree)}
    for m in points:
        f = leaf_through(a, m)
        if f.node not in leaf_nodes or not tree.is_between(a, m, f):
            return False, m
    return True, None


# --------------------------------------------------------------------- #
# Lifschitz characteristic                                                #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class LifschitzWitness:
    """Center z making B(x; a*r) ∩ B(y; b*r) fit inside B(z; r).

    Built with a = 1 + eps and b = 2 - 2*eps for eps in (0, 1); z sits on
    the geodesic [x, y] at distance eps*r from x.
    """

    x: TreePoint
    y: TreePoint
    r: float
    eps: float
    a: float
    b: float
    z: TreePoint


@dataclass(frozen=True)
class WitnessVerification:
    checked: int
    applicable: int
    failures: tuple[TreePoint, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def lifschitz_witness(
    tree: MetricTree,
    x: TreePoint,
    y: TreePoint,
    r: float,
    eps: float,
    test_points: Sequence[TreePoint],
) -> tuple[LifschitzWitness, WitnessVerification]:
    """Construct and verify the sub-2 Lifschitz center.

    Requires d(x, y) > r and 0 < eps < 1.  Every test point w inside both
    B(x; (1+eps)*r) and B(y; (2-2*eps)*r) must satisfy d(w, z) <= r for
    z on [x, y] at distance eps*r from x; points outside the intersection
    are counted but not constrained.
    """
    tree._own(x)
    tree._own(y)
    if not r > 0:
        raise PreconditionViolation(f"r must be positive, got {r!r}")
    if tree.distance(x, y) <= r:
        raise PreconditionViolation("need d(x, y) > r")
    if not 0.0 < eps < 1.0:
        raise PreconditionViolation(f"eps must lie in (0, 1), got {eps!r}")
    a = 1.0 + eps
    b = 2.0 - 2.0 * eps
    z = tree.point_at(x, y, eps * r)
    tol = tree.tol
    pts = PointArray.of(tree, test_points)
    inside = tol.leq_array(tree.distances(x, pts), a * r)
    inside &= tol.leq_array(tree.distances(y, pts), b * r)
    failed = inside & ~tol.leq_array(tree.distances(z, pts), r)
    failures = tuple(pts[i] for i in np.flatnonzero(failed))
    witness = LifschitzWitness(x, y, float(r), float(eps), a, b, z)
    return witness, WitnessVerification(len(pts), int(inside.sum()), failures)


@dataclass(frozen=True)
class CounterexampleRecord:
    """The b = 2 obstruction on a path tree.

    On a path of length 4r with endpoints w, v: y is the midpoint, x sits
    between y and v with r < d(y, x) < min(a, 2)*r, and u lies toward w at
    distance a*r from x (clamped to w when the path is too short).  The
    segment [u, v] then lies inside both B(x; a*r) and B(y; 2*r) but has
    diameter > 2r, so no closed ball of radius r contains it.
    """

    tree: MetricTree
    r: float
    a: float
    w: TreePoint
    v: TreePoint
    y: TreePoint
    x: TreePoint
    u: TreePoint
    clamped: bool
    uv_diameter: float
    containment_ok: bool
    diameter_exceeds_2r: bool
    no_small_ball_ok: bool

    @property
    def passed(self) -> bool:
        return self.containment_ok and self.diameter_exceeds_2r and self.no_small_ball_ok


def lifschitz_counterexample(
    r: float,
    a: float,
    samples: int = 64,
    tol: Tolerance | None = None,
) -> CounterexampleRecord:
    """Build and verify the construction showing b = 2 is not Lifschitz."""
    if not (isinstance(r, (int, float)) and r > 0):
        raise BadParams(f"r must be positive, got {r!r}")
    if not (isinstance(a, (int, float)) and a > 1):
        raise BadParams(f"a must exceed 1, got {a!r}")
    r = float(r)
    a = float(a)
    tree = MetricTree(2, [(0, 1, 4.0 * r)], tol=tol)
    w = tree.node_point(0)
    v = tree.node_point(1)
    y = tree.edge_point(0, 1, 2.0 * r)
    # x strictly between y and v: d(y, x) in (r, min(a, 2) * r)
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
    return CounterexampleRecord(
        tree,
        r,
        a,
        w,
        v,
        y,
        x,
        u,
        clamped,
        uv_diameter,
        containment_ok,
        diameter_exceeds,
        no_small_ball,
    )


@dataclass(frozen=True)
class KappaReport:
    """Randomized two-sided probe of the Lifschitz characteristic.

    Witness trials confirm every b = 2 - 2*eps works on the given tree;
    counterexample trials confirm the b = 2 template fails containment.
    Together they bracket the characteristic at exactly 2.
    """

    trials: int
    witness_trials: int
    witness_failures: int
    counterexample_trials: int
    counterexample_failures: int
    vacuous: bool

    @property
    def consistent(self) -> bool:
        return self.witness_failures == 0 and self.counterexample_failures == 0


def kappa_probe(
    tree: MetricTree,
    trials: int,
    rng: np.random.Generator | int | None = None,
    eps: float | None = None,
    samples_per_edge: int = 4,
) -> KappaReport:
    """Randomized confirmation that the tree's Lifschitz characteristic is 2.

    Each trial draws x, y, r with d(x, y) > r and eps in (0, 1) (or the
    fixed ``eps``), runs ``lifschitz_witness`` against a dense sample of the
    tree, and independently verifies one ``lifschitz_counterexample``
    template.  A tree with no pair at positive distance (a single node)
    yields a vacuous pass.
    """
    if trials < 1:
        raise BadParams(f"trials must be >= 1, got {trials!r}")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    dense = edge_samples(tree, per_edge=samples_per_edge)
    witness_trials = 0
    witness_failures = 0
    cex_trials = 0
    cex_failures = 0
    can_separate = tree.n_nodes > 1
    for _ in range(trials):
        if can_separate:
            # resample coincident pairs; any tree with an edge separates
            # two random points almost surely
            for _attempt in range(32):
                x = random_point(rng, tree)
                y = random_point(rng, tree)
                d = tree.distance(x, y)
                if d > tree.tol.abs_eps:
                    break
            else:
                d = 0.0
            if d > tree.tol.abs_eps:
                r = float(rng.uniform(0.05, 0.95)) * d
                e = float(eps) if eps is not None else float(rng.uniform(0.05, 0.95))
                _w, verification = lifschitz_witness(tree, x, y, r, e, dense)
                witness_trials += 1
                if not verification.passed:
                    witness_failures += 1
        cex = lifschitz_counterexample(
            r=float(rng.uniform(0.1, 5.0)),
            a=float(rng.uniform(1.05, 4.0)),
            tol=tree.tol,
        )
        cex_trials += 1
        if not cex.passed:
            cex_failures += 1
    return KappaReport(
        trials,
        witness_trials,
        witness_failures,
        cex_trials,
        cex_failures,
        vacuous=witness_trials == 0,
    )
