"""Exact diameter, circumcenter, and optimal covering for finite point sets
in a metric tree.

Two covering objectives are supported for a finite set A:

* fixed radius r: the minimum number of closed balls of radius r (centers
  anywhere in the tree) covering A;
* fixed bound b: the minimum number of blocks of a partition of A with every
  block of diameter at most b.

On a tree the two are tightly linked: a set of diameter b fits inside a
single closed ball of radius b/2 centered at the midpoint of its farthest
pair, and a radius-r ball never holds two points further than 2r apart.  The
per-n covering profiles (``beta_profile`` for balls, ``alpha_profile`` for
partitions, ``beta_star_profile`` for diameter-constrained balls) therefore
satisfy exactly

    alpha_n = 2 * beta_n = beta_star_n

so one binary search, ``beta_profile``, yields all three: alpha and beta*
double its values, alpha's witnesses are the blocks of its covers and
beta*'s witnesses are its covers.  The acceptance suite checks alpha and
beta* against an exhaustive partition oracle that shares none of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal

from .core import MetricTree, TreePoint
from .errors import (
    EmptySet,
    BadParams,
    ForeignPoint,
    NegativeDiameter,
    NegativeRadius,
    TooLargeForOracle,
)
from .sampling import edge_samples

__all__ = [
    "PointSet",
    "BallCover",
    "DiameterPartition",
    "CoverProfile",
    "diameter",
    "circumcenter",
    "min_ball_cover",
    "min_diameter_partition",
    "beta_profile",
    "alpha_profile",
    "beta_star_profile",
    "oracle_min_cover",
    "oracle_profiles",
    "ball_diameter",
]

ORACLE_LIMIT = 10


@dataclass(frozen=True)
class PointSet:
    """A finite multiset of points in one tree.

    Points are canonicalized at construction; covering operations work on
    the distinct points (duplicates share their representative's fate).
    """

    tree: MetricTree
    points: tuple[TreePoint, ...]

    def __init__(self, tree: MetricTree, points: Iterable[TreePoint]):
        pts = tuple(points)
        for p in pts:
            if p.tree is not tree:
                raise ForeignPoint("point belongs to a different tree")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "points", pts)

    @cached_property
    def distinct(self) -> tuple[TreePoint, ...]:
        return tuple(dict.fromkeys(self.points))

    @cached_property
    def _distinct_index(self) -> dict[TreePoint, int]:
        return {p: i for i, p in enumerate(self.distinct)}

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class BallCover:
    """Closed balls of a common radius covering a point set.

    ``assignment[i]`` is the index into ``centers`` of the ball covering
    ``points[i]``.
    """

    centers: tuple[TreePoint, ...]
    radius: float
    assignment: tuple[int, ...]


@dataclass(frozen=True)
class DiameterPartition:
    """Partition of point indices into blocks of bounded diameter."""

    blocks: tuple[tuple[int, ...], ...]
    diameter_bound: float


@dataclass(frozen=True)
class CoverProfile:
    """Optimal covering value per number of parts n = 1..n_max.

    ``kind`` is "radius" (ball covers), "diameter" (partitions), or
    "ball_diameter" (covers by balls of constrained diameter); ``values[k]``
    is the optimum for n = k + 1.  Witnesses realize each optimum.
    """

    kind: Literal["radius", "diameter", "ball_diameter"]
    values: tuple[float, ...]
    witnesses: tuple = field(repr=False, default=())

    def value(self, n: int) -> float:
        return self.values[n - 1]


# --------------------------------------------------------------------- #
# Diameter and circumcenter                                               #
# --------------------------------------------------------------------- #


def diameter(ps: PointSet) -> tuple[float, tuple[TreePoint, TreePoint]]:
    """Maximum pairwise distance and a realizing pair.

    Uses the two-sweep farthest-point method, which is exact on trees: the
    farthest point from any start is always one end of a diametral pair.
    """
    pts = ps.distinct
    if not pts:
        raise EmptySet("diameter of an empty point set")
    tree = ps.tree
    if len(pts) == 1:
        return 0.0, (pts[0], pts[0])
    x = max(pts, key=lambda q: tree.distance(pts[0], q))
    y = max(pts, key=lambda q: tree.distance(x, q))
    return tree.distance(x, y), (x, y)


def circumcenter(ps: PointSet) -> tuple[TreePoint, float]:
    """Smallest enclosing closed ball: (center, radius).

    On a tree the midpoint of a farthest pair covers the whole set at
    radius diameter/2, and no point does strictly better because both ends
    of the farthest pair must be reached.
    """
    diam, (x, y) = diameter(ps)
    return ps.tree.midpoint(x, y), 0.5 * diam


# --------------------------------------------------------------------- #
# Fixed-radius covering (greedy, provably minimum on trees)               #
# --------------------------------------------------------------------- #


def min_ball_cover(ps: PointSet, radius: float) -> BallCover:
    """Cover with the minimum number of closed radius-``radius`` balls.

    Greedy: root the tree, repeatedly take an uncovered point of maximum
    depth and place a center on its root path at distance
    ``min(radius, depth)`` back toward the root.  Any single ball covering
    the deepest uncovered point covers no more of the remaining points than
    this center does, so the greedy count is minimum.
    """
    if not ps.points:
        raise EmptySet("cover of an empty point set")
    tree = ps.tree
    if not radius >= -tree.tol.abs_eps:  # also rejects NaN
        raise NegativeRadius(f"radius must be nonnegative, got {radius!r}")
    radius = max(float(radius), 0.0)

    pts = ps.distinct
    root = tree.node_point(0)
    depth = [tree.distance(p, root) for p in pts]
    order = sorted(range(len(pts)), key=lambda i: -depth[i])

    centers: list[TreePoint] = []
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

    index = ps._distinct_index
    assignment = tuple(assigned[index[p]] for p in ps.points)
    return BallCover(tuple(centers), radius, assignment)


def min_diameter_partition(ps: PointSet, bound: float) -> DiameterPartition:
    """Partition into the minimum number of blocks of diameter <= bound.

    Reduces to a ball cover at radius bound/2: each cover ball's points have
    pairwise distance at most bound, and conversely every bounded block fits
    in one such ball around its circumcenter.
    """
    if not ps.points:
        raise EmptySet("partition of an empty point set")
    if not bound >= -ps.tree.tol.abs_eps:  # also rejects NaN
        raise NegativeDiameter(f"diameter bound must be nonnegative, got {bound!r}")
    bound = max(float(bound), 0.0)
    return _partition(min_ball_cover(ps, 0.5 * bound), bound)


def _partition(cover: BallCover, bound: float) -> DiameterPartition:
    """The blocks of points that share a ball of ``cover``."""
    blocks: list[list[int]] = [[] for _ in cover.centers]
    for i, ci in enumerate(cover.assignment):
        blocks[ci].append(i)
    return DiameterPartition(tuple(tuple(b) for b in blocks), bound)


# --------------------------------------------------------------------- #
# Covering profiles                                                       #
# --------------------------------------------------------------------- #


def _pairwise_distances(ps: PointSet) -> list[float]:
    tree = ps.tree
    pts = ps.distinct
    return [
        tree.distance(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ]


def beta_profile(ps: PointSet, n_max: int) -> CoverProfile:
    """Optimal radius for covering by n closed balls, n = 1..n_max.

    The optimum is always half a pairwise distance: an optimal ball for any
    cluster is the cluster's circumball.  beta_1 is diameter/2; the profile
    is nonincreasing and hits 0 at n = number of distinct points.  Binary
    search over those candidates, since the greedy ball count is
    nonincreasing in the radius; the witnesses are the covers it computed.
    """
    if n_max < 1:
        raise BadParams("n_max must be >= 1")
    if not ps.points:
        raise EmptySet("profile of an empty point set")
    covers: dict[float, BallCover] = {}

    def cover(r: float) -> BallCover:
        if r not in covers:
            covers[r] = min_ball_cover(ps, r)
        return covers[r]

    cands = sorted({0.0, *(0.5 * d for d in _pairwise_distances(ps))})
    values = []
    hi = len(cands) - 1
    for n in range(1, n_max + 1):
        lo = 0
        top = hi
        while lo < top:
            mid = (lo + top) // 2
            if len(cover(cands[mid]).centers) <= n:
                top = mid
            else:
                lo = mid + 1
        values.append(cands[lo])
        hi = lo  # profiles are nonincreasing in n
    return CoverProfile("radius", tuple(values), tuple(cover(v) for v in values))


def _doubled_profiles(beta: CoverProfile) -> tuple[CoverProfile, CoverProfile]:
    """(alpha, beta*) read off a beta profile: both are 2 * beta on a tree.

    Doubling is exact in floating point, so the values equal the pairwise
    distances a search over diameters would return.  A radius-r cover's
    blocks have diameter <= 2r, and its balls have ball diameter <= 2r.
    """
    values = tuple(2.0 * r for r in beta.values)
    blocks = tuple(_partition(c, v) for c, v in zip(beta.witnesses, values))
    return (
        CoverProfile("diameter", values, blocks),
        CoverProfile("ball_diameter", values, beta.witnesses),
    )


def alpha_profile(ps: PointSet, n_max: int) -> CoverProfile:
    """Optimal max-block-diameter over partitions into n blocks."""
    return _doubled_profiles(beta_profile(ps, n_max))[0]


def beta_star_profile(ps: PointSet, n_max: int) -> CoverProfile:
    """Optimal bound b for covering by n closed balls of diameter <= b.

    The ball diameter is measured inside the tree, so a ball around a leaf
    can have diameter much smaller than twice its radius.  The optimum
    coincides with the partition optimum: circumballs of the optimal blocks
    have ball diameter exactly the block diameter.
    """
    return _doubled_profiles(beta_profile(ps, n_max))[1]


# --------------------------------------------------------------------- #
# Exhaustive oracle                                                       #
# --------------------------------------------------------------------- #


def _oracle_guard(ps: PointSet) -> tuple[tuple[TreePoint, ...], list[list[float]]]:
    pts = ps.distinct
    if not pts:
        raise EmptySet("oracle on an empty point set")
    if len(pts) > ORACLE_LIMIT:
        raise TooLargeForOracle(
            f"oracle is exhaustive; limited to {ORACLE_LIMIT} distinct points, got {len(pts)}"
        )
    tree = ps.tree
    dist = [[tree.distance(p, q) for q in pts] for p in pts]
    return pts, dist


def _subset_diameters(dist: list[list[float]]) -> list[float]:
    k = len(dist)
    diam = [0.0] * (1 << k)
    for mask in range(1, 1 << k):
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = diam[rest]
        row = dist[i]
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            if row[j] > best:
                best = row[j]
            m &= m - 1
        diam[mask] = best
    return diam


def oracle_min_cover(
    ps: PointSet, value: float, mode: Literal["ball", "diameter"] = "ball"
) -> int:
    """Exhaustive minimum part count, independent of the greedy cover.

    Minimizes over all set partitions; a block is feasible iff its diameter
    is at most 2*value (ball mode: one closed radius-value ball suffices
    exactly when the diameter is at most 2*value) or at most value
    (diameter mode).  Guarded to small distinct-point counts.
    """
    if mode not in ("ball", "diameter"):
        raise BadParams(f"mode must be 'ball' or 'diameter', got {mode!r}")
    tree = ps.tree
    if not value >= -tree.tol.abs_eps:  # also rejects NaN
        if mode == "ball":
            raise NegativeRadius(f"radius must be nonnegative, got {value!r}")
        raise NegativeDiameter(f"diameter bound must be nonnegative, got {value!r}")
    value = max(float(value), 0.0)
    pts, dist = _oracle_guard(ps)
    threshold = 2.0 * value if mode == "ball" else value
    diam = _subset_diameters(dist)
    k = len(pts)
    full = (1 << k) - 1
    feasible = [tree.tol.leq(diam[m], threshold) for m in range(1 << k)]
    best = [0] + [k + 1] * full
    for mask in range(1, 1 << k):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and feasible[sub]:
                cand = best[mask ^ sub] + 1
                if cand < best[mask]:
                    best[mask] = cand
            sub = (sub - 1) & mask
    return best[full]


def oracle_profiles(ps: PointSet, n_max: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exhaustive (alpha, beta) profiles via partition enumeration.

    A single dynamic program over all set partitions yields, for each block
    count n, the minimum possible maximum block diameter; that is the
    partition optimum, and half of it is the ball optimum (circumball
    exactness).  Independent of the greedy machinery.
    """
    if n_max < 1:
        raise BadParams("n_max must be >= 1")
    pts, dist = _oracle_guard(ps)
    diam = _subset_diameters(dist)
    k = len(pts)
    full = (1 << k) - 1
    inf = float("inf")
    # g[mask][c] = min over partitions of mask into <= c+1 blocks of the
    # largest block diameter.
    g = [[inf] * k for _ in range(1 << k)]
    g[0] = [0.0] * k
    for mask in range(1, 1 << k):
        low = mask & -mask
        row = g[mask]
        sub = mask
        while sub:
            if sub & low:
                d_sub = diam[sub]
                rest_row = g[mask ^ sub]
                for c in range(1, k):
                    prev = rest_row[c - 1]
                    cand = d_sub if d_sub >= prev else prev
                    if cand < row[c]:
                        row[c] = cand
            sub = (sub - 1) & mask
        row[0] = diam[mask] if row[0] == inf else min(row[0], diam[mask])
    alpha = tuple(g[full][min(n, k) - 1] for n in range(1, n_max + 1))
    beta = tuple(0.5 * a for a in alpha)
    return alpha, beta


# --------------------------------------------------------------------- #
# Ball geometry                                                           #
# --------------------------------------------------------------------- #


def ball_diameter(tree: MetricTree, center: TreePoint, rho: float) -> float:
    """Exact diameter of the closed ball B(center; rho) as a tree subset.

    The ball is a convex subtree; its diameter is realized between two of
    its extremal points, which are tree leaves inside the ball or points at
    distance exactly rho along edges leaving it.
    """
    tree._own(center)
    if not rho >= 0:  # also rejects NaN
        raise NegativeRadius(f"radius must be nonnegative, got {rho!r}")
    ext: list[TreePoint] = [center]
    # one side of each pair is a node, so d(center, node) == d(node, center) exactly
    node_dist = tree.distances(center, edge_samples(tree, per_edge=0)).tolist()
    for i in range(tree.n_nodes):
        if node_dist[i] <= rho and tree.degree(i) <= 1:
            ext.append(tree.node_point(i))
    for e, (u, v, length) in enumerate(tree.edges):
        if center.edge == e:
            # distances inside the center's own edge are direct
            ext.append(tree._edge_point_at(e, max(center.offset - rho, 0.0)))
            ext.append(tree._edge_point_at(e, min(center.offset + rho, length)))
            continue
        du, dv = node_dist[u], node_dist[v]
        if du <= rho:
            ext.append(tree._edge_point_at(e, min(rho - du, length)))
        if dv <= rho:
            ext.append(tree._edge_point_at(e, max(length - (rho - dv), 0.0)))
    return diameter(PointSet(tree, ext))[0]
