"""Contraction constants of sampled maps between metric trees.

A map is k-set-contractive when it multiplies the partition profile by at
most k, and k-ball-contractive when it does the same to the ball profile.
Between metric trees the two constants coincide, because both profiles
halve together, so the library reports the ball ratios; this demo measures
them on four maps and sets them beside the set ratios of the exhaustive
partition oracle.
"""

import numpy as np

from metrictrees import (
    MetricTree,
    PointMap,
    PointSet,
    contraction_constants,
    gallery,
    oracle_profiles,
    random_points,
    random_tree,
)

star = gallery("star", n=4)
tips = [star.points[f"tip{i}"] for i in range(1, 5)]

# Identity: every ratio is 1.
identity = PointMap(star.tree, star.tree, [(p, p) for p in tips])
rep = contraction_constants(identity)
print("identity map     ball ratios:", rep.ball_ratios)
print("  (n with zero source profile skipped:", rep.skipped, ")")

# Collapse to the hub: ratios drop to 0, maximally compactifying.
hub = star.points["hub"]
collapse = PointMap(star.tree, star.tree, [(p, hub) for p in tips])
rep = contraction_constants(collapse)
print("collapsing map   ball ratios:", rep.ball_ratios)

# Pull every node of a path halfway toward one end: ratios are exactly 1/2.
path = MetricTree(9, [(i, i + 1, 1.0) for i in range(8)])
end = path.node_point(0)
far = path.node_point(8)
half = PointMap(
    path,
    path,
    [(path.node_point(i), path.point_at(end, far, i / 2)) for i in range(9)],
)
rep = contraction_constants(half)
print("half-shrink map  ball ratios:", rep.ball_ratios)
print("  contraction constant k =", rep.k_ball)

# On a random sampled map the ball ratios match the set ratios that the
# exhaustive oracle finds by enumerating every partition of the sample.
rng = np.random.default_rng(31)
src = random_tree(rng, n_nodes=12)
dst = random_tree(rng, n_nodes=12)
sources = list(dict.fromkeys(random_points(rng, src, 7)))
images = random_points(rng, dst, len(sources))
pm = PointMap(src, dst, list(zip(sources, images)))
rep = contraction_constants(pm)
src_alpha, _ = oracle_profiles(PointSet(src, sources), len(sources))
img_alpha, _ = oracle_profiles(PointSet(dst, images), len(sources))
print("\nrandom sampled map:")
for n, rb in zip(rep.ns, rep.ball_ratios):
    rs = img_alpha[n - 1] / src_alpha[n - 1]
    print(f"  n={n}: ball {rb:.6f}  oracle set {rs:.6f}  difference {abs(rb - rs):.1e}")
print("  contraction constant k =", rep.k_ball)
