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

The fixed-radius greedy reads only the distances between the points of A.
It takes the deepest uncovered point p (depth: distance from node 0) and
centers a ball at c, ``min(r, depth p)`` from p toward node 0.  An uncovered
q is no deeper than p, so either q lies below c, within r of c and 2r of p,
or the path from q to p runs through c and d(c, q) = d(p, q) - r.  Either
way c covers q exactly when d(p, q) <= 2r (Kariv & Hakimi, SIAM J. Appl.
Math. 1979): the greedy reads rows of distances and places centers last.
The rows are span rows of the set's ``PointArray``, O(k) each for k points,
and the depths come off the same span index, O(k) for all of them; no cover
or diameter builds the k x k matrix, which only the profile search and the
oracle read.  The greedy reads its rows in passes of pending seeds: each
pass reads the rows of the next unclaimed points in depth order in one
call, as many as ``_PASS_FLOATS`` distances hold and at least one, and then
settles them in order.  A 24-point set reads all its rows in one pass, a
set of more than 1024 points one row per pass, and no cover holds more than
one pass of rows.  Claims are Python-int bitsets: a new seed ORs its
packed row into them in one ``int`` operation, and one unpack of the
seeds' rows at the end gives every point the first seed whose row holds
it.  The centers come last, those of one cover or of all a profile's
witness covers from one climb toward node 0
(``MetricTree._toward_root``), each the point a walk along its path would
reach.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice
from typing import Callable, Iterable, Literal

import numpy as np

from ._build import _is_number_type
from .core import MetricTree, PointArray, Tolerance, TreePoint, _count
from .errors import (
    EmptySet,
    BadParams,
    MetricTreeError,
    NegativeDiameter,
    NegativeRadius,
    TooLargeForOracle,
)

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
_PASS_FLOATS = 2048  # distances per pass of the greedy's rows, unless one row is more


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
        tree._own(*pts)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "points", pts)

    @cached_property
    def distinct(self) -> tuple[TreePoint, ...]:
        return tuple(dict.fromkeys(self.points))

    @cached_property
    def _array(self) -> PointArray:
        return PointArray.of(self.tree, self.distinct)

    @cached_property
    def _depth(self) -> list[float]:
        return self._array._depths().tolist()

    @cached_property
    def _order(self) -> list[int]:
        """The distinct points' indices, deepest first (ties by index)."""
        depth = self._depth
        return sorted(range(len(depth)), key=lambda i: -depth[i])

    @cached_property
    def _distinct_index(self) -> list[int]:
        """Per point, the index of its distinct representative."""
        index = {p: i for i, p in enumerate(self.distinct)}
        return [index[p] for p in self.points]

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


def _nonnegative(value: float, tol: Tolerance, error: type[MetricTreeError], what: str) -> float:
    """``value`` as a float clamped at 0, or ``error`` when it is no real
    number (a bool included), lies below ``-tol.abs_eps``, is infinite or
    is NaN: a radius or bound within tolerance of 0 reads as 0 everywhere,
    and a cover's JSON report has no token for an infinite one."""
    if not (_is_number_type(type(value)) and -tol.abs_eps <= value < math.inf):  # also NaN
        raise error(f"{what} must be nonnegative and finite, got {value!r}")
    return max(float(value), 0.0)


# --------------------------------------------------------------------- #
# Diameter and circumcenter                                               #
# --------------------------------------------------------------------- #


def diameter(ps: PointSet) -> tuple[float, tuple[TreePoint, TreePoint]]:
    """Maximum pairwise distance and a realizing pair.

    Uses the two-sweep farthest-point method, which is exact on trees: the
    farthest point from any start is always one end of a diametral pair.
    Reads two span rows, so it never builds the k x k matrix.
    """
    pts = ps.distinct
    if not pts:
        raise EmptySet("diameter of an empty point set")
    arr = ps._array
    x = int(arr._span_rows(slice(0, 1))[0].argmax())  # the first farthest, as max picks
    row = arr._span_rows(slice(x, x + 1))[0]
    y = int(row.argmax())
    return float(row[y]), (pts[x], pts[y])


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

    Greedy: root the tree, repeatedly take an uncovered point p of maximum
    depth and place a center c on its root path at distance
    ``min(radius, depth)`` back toward the root.  Any single ball covering
    p covers no more of the remaining points than this center does, so the
    greedy count is minimum.  c covers an uncovered q exactly when
    ``d(p, q) <= 2 * radius``, because q is no deeper than p (see the module
    docstring), so the greedy reads p's span row in place of c's and places
    the centers last, in one climb: O(k) for the depths, then O(k) per row.
    The rows are read in passes of pending seeds, a row for every center
    and for each point claimed within its own pass; no cover holds more
    than one pass of rows (``_PASS_FLOATS`` distances, or one row).
    """
    if not ps.points:
        raise EmptySet("cover of an empty point set")
    radius = _nonnegative(radius, ps.tree.tol, NegativeRadius, "radius")
    return _placed(ps, [(radius, *_greedy(ps, radius, ps._array._span_rows))])[0]


def _greedy(ps: PointSet, radius: float, rows: Callable) -> tuple[list[int], list[int]]:
    """The seeds of the greedy cover (indices of distinct points, deepest
    first) and, per distinct point, the number of the seed that claims it.
    ``rows(block)`` returns the distance rows of the distinct points whose
    indices are the list or slice ``block``.

    Each pass reads the rows of the next unclaimed points in depth order,
    at most ``_PASS_FLOATS`` distances and at least one row, and settles
    them in order on bitsets: a point still unclaimed becomes a seed and
    claims every unclaimed point within ``2 * radius`` by its row, as one
    ``int`` operation on its packed row (bit j for distinct point j).  A
    point's seed is the first whose row holds it, so one unpack of the
    seeds' rows at the end, k bits per seed, gives each point its seed's
    number.  Every verdict is the one a row per seed gives.  A point
    claimed earlier in its own pass wastes its row, so a pass holds few
    rows on a large set, where each row costs most."""
    leq = ps.tree.tol.leq_array
    k = len(ps.distinct)
    step, width = max(1, _PASS_FLOATS // k), (k + 7) // 8
    seeds: list[int] = []
    claims: list[bytes] = []  # per seed, its packed row
    claimed = 0  # bit j set: distinct point j is claimed
    # lazy, so each point is tested once, after the passes before it settled
    unclaimed = (i for i in ps._order if not claimed & (1 << i))
    while block := list(islice(unclaimed, step)):
        # one row by a slice, which numpy indexes 5-7 us faster than a list
        picked = slice(block[0], block[0] + 1) if len(block) == 1 else block
        close = np.packbits(leq(rows(picked) - radius, radius), axis=1, bitorder="little").tobytes()
        for at, i in enumerate(block):
            if not claimed & (1 << i):
                claim = close[at * width : (at + 1) * width]
                claimed |= int.from_bytes(claim, "little")
                claims.append(claim)
                seeds.append(i)
    # a point is claimed by the first seed whose row holds its bit, and every
    # point is in some seed's row, so argmax gives that seed's number
    bits = np.frombuffer(b"".join(claims), np.uint8).reshape(len(seeds), width)
    return seeds, np.unpackbits(bits, axis=1, count=k, bitorder="little").argmax(axis=0).tolist()


def _placed(ps: PointSet, covers: list[tuple[float, list[int], list[int]]]) -> list[BallCover]:
    """The greedy's covers, one per ``(radius, seeds, assigned)``: a center
    ``min(radius, depth)`` from each seed toward node 0, every cover's in
    one climb (``_centers``), and the seed numbers as the assignment of
    every point.  A seed's depth is its distance to node 0, so no center
    re-measures it."""
    centers = iter(_centers(ps, [i for _, seeds, _ in covers for i in seeds],
                            [r for r, seeds, _ in covers for _ in seeds]))
    index = ps._distinct_index
    return [BallCover(tuple(islice(centers, len(seeds))), r, tuple(assigned[i] for i in index))
            for r, seeds, assigned in covers]


def _centers(ps: PointSet, seeds: list[int], radii: list[float]) -> list[TreePoint]:
    """Per seed, the point ``t = min(radius, depth)`` from it toward node 0,
    all of them from one climb (``MetricTree._toward_root``): the point
    ``MetricTree._point_along(seed, node 0, depth, t)`` gives, bit for bit."""
    depth = ps._depth
    return ps.tree._toward_root([ps.distinct[i] for i in seeds], [depth[i] for i in seeds],
                                [min(r, depth[i]) for i, r in zip(seeds, radii)])


def min_diameter_partition(ps: PointSet, bound: float) -> DiameterPartition:
    """Partition into the minimum number of blocks of diameter <= bound.

    Reduces to a ball cover at radius bound/2: each cover ball's points have
    pairwise distance at most bound, and conversely every bounded block fits
    in one such ball around its circumcenter.
    """
    if not ps.points:
        raise EmptySet("partition of an empty point set")
    bound = _nonnegative(bound, ps.tree.tol, NegativeDiameter, "diameter bound")
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


def beta_profile(ps: PointSet, n_max: int) -> CoverProfile:
    """Optimal radius for covering by n closed balls, n = 1..n_max.

    The optimum is always half a pairwise distance: an optimal ball for any
    cluster is the cluster's circumball.  beta_1 is diameter/2; the profile
    is nonincreasing and hits 0 at n = number of distinct points.  Binary
    search over those candidates, since the greedy ball count is
    nonincreasing in the radius; the greedy reads the rows of one distance
    matrix, a block of them per pass, and centers are placed only for the
    witness covers, all of them in one climb.
    """
    n_max = _count(n_max, "n_max")
    if not ps.points:
        raise EmptySet("profile of an empty point set")
    dist = ps.tree._distance_matrix(ps._array)
    greedy = cache(lambda r: _greedy(ps, r, dist.__getitem__))
    # the distinct half distances in order, 0.0 from the diagonal; np.unique
    # would give the same list but import numpy.ma, 1.3 MB of resident memory
    half = np.sort((0.5 * dist)[np.triu_indices(len(dist))])
    cands = half[np.r_[True, half[1:] != half[:-1]]].tolist()
    values: list[float] = []
    hi = len(cands) - 1
    for n in range(1, n_max + 1):
        # the first candidate of at most n balls; profiles are nonincreasing in n
        hi = bisect_left(cands, True, 0, hi, key=lambda r: len(greedy(r)[0]) <= n)
        values.append(cands[hi])
    witnesses = tuple(_placed(ps, [(r, *greedy(r)) for r in values]))
    return CoverProfile("radius", tuple(values), witnesses)


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
    return pts, ps.tree._distance_matrix(ps._array).tolist()


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
    if mode == "ball":
        value = _nonnegative(value, tree.tol, NegativeRadius, "radius")
    else:
        value = _nonnegative(value, tree.tol, NegativeDiameter, "diameter bound")
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
    n_max = _count(n_max, "n_max")
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
        row[0] = diam[mask]  # c = 0: one block, the whole mask
    alpha = tuple(g[full][min(n, k) - 1] for n in range(1, n_max + 1))
    beta = tuple(0.5 * a for a in alpha)
    return alpha, beta


# --------------------------------------------------------------------- #
# Ball geometry                                                           #
# --------------------------------------------------------------------- #


def ball_diameter(tree: MetricTree, center: TreePoint, rho: float) -> float:
    """Exact diameter of the closed ball B(center; rho) as a tree subset.

    The ball is a convex subtree; its diameter is realized between two of
    its extremal points: the center and the ends of the interval in which
    it meets each edge (a leaf inside the ball is such an end).  Two sweeps
    as in ``diameter``, over the ends as one ``PointArray``, each a
    ``distances`` row: first from the center, which is not one of the ends,
    then from the end farthest from it.  A node is an end of every edge of
    the ball at it, so a ball over a whole 8000-node tree has about 16,000
    ends; there a span row of the far end took 2.0 ms even with each node
    kept once (and the dedup itself 0.4-1.9 ms), and its ``distances`` row
    0.09 ms.  Both kernels give ``distance`` bit for bit, so the float is
    the same.
    """
    tree._own(center)
    rho = _nonnegative(rho, tree.tol, NegativeRadius, "radius")
    _met, ends = tree._interval_ends(*tree._ball_on_edges(center, rho))
    if not ends:  # a single-node tree: the ball is its center
        return 0.0
    far = int(tree.distances(center, ends).argmax())
    return float(tree.distances(ends[far], ends).max())
