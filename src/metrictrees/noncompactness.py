"""Relations between covering measures, embedding invariance, and
contraction constants of sampled maps between metric trees.

The per-n covering profiles stand in for the classical Kuratowski (set) and
Hausdorff (ball) measures of noncompactness at finite scale.  On metric
trees the set measure is exactly twice the ball measure, so the two notions
of a k-contractive map coincide: ``contraction_constants`` reports the ball
ratios, which are the set ratios too, and ``measure_report`` shows the
identities on concrete data.

Every report reads its profiles from ``measure_report``, which runs one
beta search per point set and takes alpha and beta* from it (see
``covering``).  The identities therefore hold by construction here; the
exhaustive partition oracle in the acceptance suite is their independent
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MetricTree, TreePoint, _count, _id_below
from .covering import (
    BallCover,
    CoverProfile,
    DiameterPartition,
    PointSet,
    _doubled_profiles,
    beta_profile,
)
from .errors import BadParams, EmptySet, ForeignPoint, NotIsometric

__all__ = [
    "PointMap",
    "MeasureReport",
    "EmbeddingReport",
    "ContractionReport",
    "measure_report",
    "embedding_invariance_check",
    "contraction_constants",
]


@dataclass(frozen=True)
class PointMap:
    """A map between two trees sampled at finitely many points.

    ``pairs[k]`` is (source point, image point).  Source points must be
    distinct after canonicalization so the map is well defined on the
    sample.
    """

    source: MetricTree
    target: MetricTree
    pairs: tuple[tuple[TreePoint, TreePoint], ...]

    def __init__(
        self,
        source: MetricTree,
        target: MetricTree,
        pairs: Sequence[tuple[TreePoint, TreePoint]],
    ):
        pair_tuple = tuple((p, q) for p, q in pairs)
        seen: set[TreePoint] = set()
        for p, q in pair_tuple:
            if p.tree is not source:
                raise ForeignPoint("source point belongs to a different tree")
            if q.tree is not target:
                raise ForeignPoint("image point belongs to a different tree")
            if p in seen:
                raise BadParams(f"duplicate source point {p!r}")
            seen.add(p)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pairs", pair_tuple)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MeasureReport:
    """All three covering profiles of one point set plus relation checks."""

    n_max: int
    alpha: CoverProfile
    beta: CoverProfile
    beta_star: CoverProfile
    alpha_twice_beta: tuple[bool, ...]
    beta_star_twice_beta: tuple[bool, ...]
    ratios: tuple[float | None, ...]  # alpha_n / beta_n where beta_n > 0

    @property
    def passed(self) -> bool:
        return all(self.alpha_twice_beta) and all(self.beta_star_twice_beta)

    @property
    def witness_covers(self) -> tuple[BallCover, ...]:
        return self.beta.witnesses

    @property
    def witness_partitions(self) -> tuple[DiameterPartition, ...]:
        return self.alpha.witnesses


def measure_report(ps: PointSet, n_max: int | None = None) -> MeasureReport:
    """Compute alpha/beta/beta* profiles and the tree identity flags.

    One beta search runs; alpha and beta* are derived from it (see
    ``covering``), so the flags alpha_n == 2 * beta_n and
    beta_star_n == 2 * beta_n, for every n up to n_max (default: the number
    of distinct points), hold by construction.  The independent check of
    the identities is the exhaustive oracle in the acceptance suite.
    Witness covers/partitions ride along inside the profiles.
    """
    if not ps.points:
        raise EmptySet("measure report of an empty point set")
    n_max = len(ps.distinct) if n_max is None else _count(n_max, "n_max")
    tol = ps.tree.tol
    b = beta_profile(ps, n_max)
    a, bs = _doubled_profiles(b)
    a2b = tuple(tol.close(a.values[k], 2.0 * b.values[k]) for k in range(n_max))
    bs2b = tuple(tol.close(bs.values[k], 2.0 * b.values[k]) for k in range(n_max))
    ratios = tuple(x / y if y > tol.abs_eps else None for x, y in zip(a.values, b.values))
    return MeasureReport(n_max, a, b, bs, a2b, bs2b, ratios)


@dataclass(frozen=True)
class EmbeddingReport:
    """Intrinsic vs ambient set profiles of an isometrically embedded set.

    On a tree the ball profile is exactly half the set profile, so
    ``alpha_invariant`` carries the ball statement too, at the stricter
    slack: twice the values against at most twice the slack.
    """

    n_max: int
    source_alpha: tuple[float, ...]
    host_alpha: tuple[float, ...]
    alpha_invariant: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.alpha_invariant)


def embedding_invariance_check(
    ps: PointSet,
    host: MetricTree,
    images: Sequence[TreePoint],
    n_max: int | None = None,
) -> EmbeddingReport:
    """Verify covering profiles do not change under an isometric embedding.

    ``images`` gives, for each point of ``ps``, its copy in the host tree.
    The mapping must preserve pairwise distances (NotIsometric otherwise);
    the report then compares the alpha profiles computed intrinsically and
    in the host.  One beta search runs per tree, with ball centers ranging
    over that whole tree, and alpha is 2 * beta, exact on trees; so the
    alpha comparison is a genuine invariance statement for the ball
    profile as well, not bookkeeping.
    """
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
    d_src, d_host = ps.tree._distance_matrix(ps.points), host._distance_matrix(images)
    # tol.close on every pair at once (distances are nonnegative)
    slack = np.maximum(tol.abs_eps, tol.rel_eps * np.maximum(d_src, d_host))
    moved = np.argwhere(np.triu(np.abs(d_src - d_host) > slack, 1))
    if len(moved):  # the first pair in row-major order
        i, j = map(int, moved[0])
        raise NotIsometric(
            f"distance ({i}, {j}) changes from {d_src[i, j].item()!r} to {d_host[i, j].item()!r}",
            pair=(i, j),
        )
    # align the host set with the source's distinct representatives so both
    # profiles see the same multiset
    index = {p: k for k, p in enumerate(ps.points)}
    host_ps = PointSet(host, [images[index[p]] for p in ps.distinct])
    src = measure_report(ps, n_max)
    # the host set may merge points closer than the tolerance, so it takes
    # the source's n_max rather than its own default
    dst = measure_report(host_ps, src.n_max)
    sa, ha = src.alpha.values, dst.alpha.values
    return EmbeddingReport(src.n_max, sa, ha, tuple(map(tol.close, sa, ha)))


@dataclass(frozen=True)
class ContractionReport:
    """Per-n contraction ratios of a sampled map on a chosen subsample.

    ``ball_ratios[k]`` compares the image's ball profile with the source's
    at n = ns[k]; indices with alpha_n = 0 are reported in ``skipped``
    rather than divided through.  On trees alpha_n = 2 * beta_n, so the set
    ratio alpha_n(T(A)) / alpha_n(A) is the ball ratio and ``k_ball`` is
    both contraction constants.
    """

    ns: tuple[int, ...]
    ball_ratios: tuple[float, ...]
    skipped: tuple[int, ...]
    k_ball: float | None


def contraction_constants(
    pm: PointMap,
    subset: Sequence[int] | None = None,
    n_max: int | None = None,
) -> ContractionReport:
    """Ball-contraction ratios of a sampled map.

    For each n with alpha_n(A) > 0, the ball ratio is
    beta_n(T(A)) / beta_n(A).  On trees it is also the set ratio
    alpha_n(T(A)) / alpha_n(A), because both measures halve together; one
    beta search runs per point set.
    """
    idx = list(range(len(pm.pairs))) if subset is None else list(subset)
    if not idx:
        raise EmptySet("contraction ratios of an empty sample")
    for k in idx:
        if _id_below(k, len(pm.pairs)) is None:
            raise BadParams(f"subset index {k!r} is not an integer in 0..{len(pm.pairs) - 1}")
    src = measure_report(PointSet(pm.source, [pm.pairs[k][0] for k in idx]), n_max)
    img = measure_report(PointSet(pm.target, [pm.pairs[k][1] for k in idx]), src.n_max)
    tol = pm.source.tol
    a_src, b_src, b_img = src.alpha.values, src.beta.values, img.beta.values
    ns, ball_ratios, skipped = [], [], []
    for k in range(src.n_max):
        if a_src[k] <= tol.abs_eps:
            skipped.append(k + 1)
            continue
        ns.append(k + 1)
        ball_ratios.append(b_img[k] / b_src[k])
    return ContractionReport(
        tuple(ns), tuple(ball_ratios), tuple(skipped), max(ball_ratios, default=None)
    )
