"""Leaves, leaf decompositions, and Lifschitz-characteristic constructions.

A finite metric tree decomposes as the union of the geodesics from any base
point to its leaves; ``leaf_through`` produces the witnessing leaf for a
given point.  The Lifschitz characteristic of a metric tree equals 2:

* for every b < 2 there is an a > 1 such that whenever d(x, y) > r, the
  intersection of the closed balls B(x; a*r) and B(y; b*r) fits inside a
  single closed ball of radius r (``lifschitz_witness`` constructs the
  center and verifies the containment exactly, over the whole tree);
* at b = 2 this fails: ``lifschitz_counterexample`` builds a path tree and
  a subsegment of diameter > 2r lying inside both balls, which therefore
  fits in no radius-r ball.

``kappa_probe`` runs randomized trials of both halves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._build import _is_number_type
from .core import MetricTree, TreePoint, _count
from .errors import BadParams, PreconditionViolation
from .sampling import random_point

__all__ = [
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

# a tree takes the counterexample's path, 4*r long, up to this r
_MAX_R = sys.float_info.max / 16


def leaves(tree: MetricTree) -> tuple[TreePoint, ...]:
    """The final points of a tree, in node order: its nodes of degree one.

    No interior point of an edge qualifies, since it lies strictly between
    the edge's endpoints.  A single-node tree's unique node is a leaf.
    """
    if tree.n_nodes == 1:
        return (tree.node_point(0),)
    return tuple(tree.node_point(i) for i in range(tree.n_nodes) if tree.degree(i) == 1)


def leaf_through(a: TreePoint, m: TreePoint) -> TreePoint:
    """A leaf f with m on the geodesic from a to f.

    Walks from m directly away from a, taking the smallest-id branch at
    every fork, until a degree-one node is reached.  The way back to a is
    the first leg of the geodesic from m to a, read off the rooted tables,
    not found by comparing distances.  When m == a every leaf qualifies and
    the first by node index is returned.
    """
    tree = a.tree
    tree._own(m)
    if m == a:
        return leaves(tree)[0]
    e, cs, ct, _ = next(tree._legs(m, a))
    u, v = tree.edge_nodes(e)
    came, current = (v, u) if ct > cs else (u, v)  # a lies beyond ``came``
    while True:
        nxt = min((nbr for nbr, _e in tree.neighbors(current) if nbr != came), default=None)
        if nxt is None:
            return tree.node_point(current)
        came, current = current, nxt


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
    """Of ``checked`` edges, the two balls' intersection meets ``applicable``;
    ``failures`` are the ends of those meetings farther than r from z."""

    checked: int
    applicable: int
    failures: tuple[TreePoint, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def lifschitz_witness(
    tree: MetricTree, x: TreePoint, y: TreePoint, r: float, eps: float
) -> tuple[LifschitzWitness, WitnessVerification]:
    """Construct the sub-2 Lifschitz center and verify it over the whole tree.

    Requires reals (not bools) with d(x, y) > r and 0 < eps < 1.  Every
    point w inside both B(x; (1+eps)*r) and B(y; (2-2*eps)*r) must satisfy
    d(w, z) <= r for z on [x, y] at distance eps*r from x.  The balls are
    taken exactly, with no slack; on each edge their intervals meet in one,
    whose ends are checked against z up to the tolerance.
    """
    tree._own(x, y)
    if not (_is_number_type(type(r)) and r > 0):
        raise PreconditionViolation(f"r must be positive, got {r!r}")
    if tree.distance(x, y) <= r:
        raise PreconditionViolation("need d(x, y) > r")
    _check_eps(eps)
    a = 1.0 + eps
    b = 2.0 - 2.0 * eps
    z = tree.point_at(x, y, eps * r)
    lo_x, hi_x = tree._ball_on_edges(x, a * r)
    lo_y, hi_y = tree._ball_on_edges(y, b * r)
    lo, hi = np.maximum(lo_x, lo_y), np.minimum(hi_x, hi_y)
    met, ends = tree._interval_ends(lo, hi)
    failed = ~tree.tol.leq_array(tree.distances(z, ends), r)
    failures = tuple(dict.fromkeys(ends[i] for i in np.flatnonzero(failed)))
    witness = LifschitzWitness(x, y, float(r), float(eps), a, b, z)
    return witness, WitnessVerification(len(lo), len(met), failures)


def _check_eps(eps: float) -> None:
    if not (_is_number_type(type(eps)) and 0.0 < eps < 1.0):
        raise PreconditionViolation(f"eps must lie in (0, 1), got {eps!r}")


@dataclass(frozen=True)
class CounterexampleRecord:
    """The b = 2 obstruction on a path tree.

    On a path of length 4r with endpoints w, v: y is the midpoint, x sits
    between y and v with r < d(y, x) < min(a, 2)*r, and u lies toward w at
    distance a*r from x (clamped to w when the path is too short).  The
    segment [u, v] then lies inside both B(x; a*r) and B(y; 2*r) but has
    diameter > 2r, so no closed ball of radius r contains it.
    Only ``containment_ok`` is a check: ``lifschitz_counterexample`` rejects
    an r or a whose d(u, v) does not clear 2r by twice the slack.
    """

    tree: MetricTree = field(repr=False)
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


def lifschitz_counterexample(r: float, a: float) -> CounterexampleRecord:
    """Build and verify the construction showing b = 2 is not Lifschitz.

    ``r`` and ``a`` may be any real numbers, numpy's included, but not
    bools (BadParams), as for edge lengths; ``a`` must be finite and ``r``
    at most ``_MAX_R``, so that a tree takes the path (BadParams).  An r too
    small for the tolerance to tell d(u, v) from 2r, that is one where
    ``d(u, v) - 2r`` is at most twice the slack at 2r, raises BadParams too.
    So a returned record has d(u, v) > 2r + slack, and no radius-r ball
    holds [u, v]: no center does better than ``midpoint(u, v)``, since
    max(d(z, u), d(z, v)) >= d(u, v)/2 for every z.  The containment check
    is exact: balls are convex, so [u, v] lies in both when u and v do.  It
    reads coordinates on the path.
    """
    if not (_is_number_type(type(r)) and 0 < _to_float(r) <= _MAX_R):
        raise BadParams(f"r must be positive and at most {_MAX_R!r}, got {r!r}")
    if not (_is_number_type(type(a)) and 1 < _to_float(a) < math.inf):
        raise BadParams(f"a must exceed 1 and be finite, got {a!r}")
    r = float(r)
    a = float(a)
    length = 4.0 * r
    tree = MetricTree(2, [(0, 1, length)])
    w = tree.node_point(0)
    v = tree.node_point(1)
    y = tree.edge_point(0, 1, 2.0 * r)
    # x strictly between y and v: d(y, x) in (r, min(a, 2) * r)
    t = 0.5 * (r + min(a, 2.0) * r)
    x = tree.edge_point(0, 1, 2.0 * r + t)
    u_coord = 2.0 * r + t - a * r
    clamped = u_coord <= 0.0
    u = w if clamped else tree.edge_point(0, 1, u_coord)

    # on the path's one edge a distance is a difference of tail coordinates
    cu, cv, cx, cy = (p.offset if p.node is None else (0.0, length)[p.node] for p in (u, v, x, y))
    tolv = tree.tol
    containment_ok = all(
        tolv.leq(abs(c - cx), a * r) and tolv.leq(abs(c - cy), 2.0 * r) for c in (cu, cv)
    )
    uv_diameter = cv - cu
    slack = tolv.slack(2.0 * r)
    if not uv_diameter - 2.0 * r > 2.0 * slack:
        raise BadParams(f"r = {r!r} with a = {a!r} is too small to resolve: d(u, v) - 2r "
                        f"is not above twice the slack {slack!r}")
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
    )


def _to_float(x) -> float:
    """``float(x)``, or inf for a number beyond every float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


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
) -> KappaReport:
    """Randomized confirmation that the tree's Lifschitz characteristic is 2.

    Each trial draws x, y, r with d(x, y) > r and eps in (0, 1) (or the
    fixed ``eps``), runs the exact ``lifschitz_witness`` over the whole
    tree, and builds one ``lifschitz_counterexample`` template, a path
    apart from the tree, at the default tolerance, which fails when its
    ``containment_ok`` is False.  A tree with no pair at positive distance
    (a single node) yields a vacuous pass.  A fixed ``eps`` that is not a
    real in (0, 1) raises PreconditionViolation before the first trial,
    on any tree.  ``rng`` is anything ``np.random.default_rng`` takes: a
    non-negative seed of any integer type, None, or a Generator, which is
    used as is; a seed it rejects raises BadParams.
    """
    trials = _count(trials, "trials")
    if eps is not None:
        if _is_number_type(type(eps)):
            eps = _to_float(eps)
        _check_eps(eps)
    try:
        rng = np.random.default_rng(rng)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad seed {rng!r}: {exc}") from exc
    witness_trials = 0
    witness_failures = 0
    cex_failures = 0
    for _ in range(trials):
        if tree.n_nodes > 1:
            # resample coincident pairs; any tree with an edge separates
            # two random points almost surely
            for _attempt in range(32):
                x = random_point(rng, tree)
                y = random_point(rng, tree)
                d = tree.distance(x, y)
                if d > tree.tol.abs_eps:
                    break
            if d > tree.tol.abs_eps:
                r = float(rng.uniform(0.05, 0.95)) * d
                e = eps if eps is not None else float(rng.uniform(0.05, 0.95))
                _w, verification = lifschitz_witness(tree, x, y, r, e)
                witness_trials += 1
                if not verification.passed:
                    witness_failures += 1
        cex = lifschitz_counterexample(
            r=float(rng.uniform(0.1, 5.0)),
            a=float(rng.uniform(1.05, 4.0)),
        )
        if not cex.containment_ok:
            cex_failures += 1
    return KappaReport(
        trials,
        witness_trials,
        witness_failures,
        trials,
        cex_failures,
        vacuous=witness_trials == 0,
    )
