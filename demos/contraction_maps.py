"""Contraction constants of sampled maps between metric trees.

A map is k-set-contractive when it multiplies the partition profile by at
most k, and k-ball-contractive when it does the same to the ball profile.
Between metric trees the two constants coincide, because both profiles
halve together; this demo measures the ratios on three maps.
"""

import numpy as np

from metrictrees import (
    MetricTree,
    PointMap,
    contraction_bound_check,
    contraction_constants,
    gallery,
    random_points,
    random_tree,
)

star = gallery("star", n=4)
tips = [star.points[f"tip{i}"] for i in range(1, 5)]

# Identity: every ratio is 1.
identity = PointMap(star.tree, star.tree, [(p, p) for p in tips])
rep = contraction_constants(identity)
print("identity map     set ratios:", rep.set_ratios, " ball ratios:", rep.ball_ratios)
print("  (n with zero source profile skipped:", rep.skipped, ")")

# Collapse to the hub: ratios drop to 0, maximally compactifying.
hub = star.points["hub"]
collapse = PointMap(star.tree, star.tree, [(p, hub) for p in tips])
rep = contraction_constants(collapse)
print("collapsing map   set ratios:", rep.set_ratios, " ball ratios:", rep.ball_ratios)

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
print("half-shrink map  set ratios:", rep.set_ratios)
print("                 ball ratios:", rep.ball_ratios)
print("  contraction constant k =", rep.k_set)

# On random sampled maps the two ratio families always agree, and both
# cross-measure bounds (each at most twice the other) hold with slack.
rng = np.random.default_rng(31)
src = random_tree(rng, n_nodes=12)
dst = random_tree(rng, n_nodes=12)
sources = list(dict.fromkeys(random_points(rng, src, 7)))
images = random_points(rng, dst, len(sources))
pm = PointMap(src, dst, list(zip(sources, images)))
rep = contraction_constants(pm)
print("\nrandom sampled map:")
for n, rs, rb in zip(rep.ns, rep.set_ratios, rep.ball_ratios):
    print(f"  n={n}: set {rs:.6f}  ball {rb:.6f}  equal: {rs == rb}")
print("cross-measure bounds pass:", contraction_bound_check(pm).passed)
