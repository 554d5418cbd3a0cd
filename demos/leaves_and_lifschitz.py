"""Leaf decompositions and the Lifschitz characteristic of a metric tree.

Every point of a finite metric tree lies on a geodesic from any chosen base
point to some leaf, so the tree is the union of those base-to-leaf segments.
The second half of the demo measures the tree's Lifschitz characteristic:
radius-r "caps" of two-ball intersections exist for every shape parameter
b < 2 and fail for b = 2, pinning the characteristic at exactly 2.
"""

import numpy as np

from metrictrees import (
    MetricTree,
    edge_samples,
    gallery,
    kappa_probe,
    leaf_cover_check,
    leaf_through,
    leaves,
    lifschitz_counterexample,
    lifschitz_witness,
    random_tree,
)

doc = gallery("comb_noncompact", n=5)
tree = doc.tree
origin = doc.points["origin"]

print("leaves of comb_noncompact(5):", sorted(p.node for p in leaves(tree)))

# A point halfway up tooth 3 projects forward to that tooth's tip.
m = tree.edge_point(*tree.edge_nodes(7), 0.5)
f = leaf_through(origin, m)
print("witness leaf for a mid-tooth point:", f, "-> tip3 is", doc.points["tip3"])

ok, _ = leaf_cover_check(tree, origin, edge_samples(tree, per_edge=4))
print("dense sample covered by base-to-leaf segments:", ok)

# --- Lifschitz characteristic ------------------------------------------
# b < 2: choose a = 1 + eps and b = 2 - 2*eps.  The point z at distance
# eps*r from x along [x, y] caps the intersection of B(x; a*r) and
# B(y; b*r) inside B(z; r).  The check is exact: on every edge the two balls
# meet in one interval, and only its ends need testing against z.
path = MetricTree(11, [(i, i + 1, 1.0) for i in range(10)])
x, y = path.node_point(0), path.node_point(10)
witness, verification = lifschitz_witness(path, x, y, r=4.0, eps=0.25)
print("\nwitness on a length-10 path (r=4, eps=0.25):")
print("  a =", witness.a, " b =", witness.b, " z =", witness.z)
print("  edges the two balls meet on:", verification.applicable, "of", verification.checked,
      " failures:", len(verification.failures))

# b = 2: on a path of length 4r, the segment [u, v] sits inside both
# B(x; a*r) and B(y; 2r) yet has diameter > 2r, so no radius-r ball holds it:
# its midpoint, the best center, lies farther than r from u.  A large a
# clamps u to the path's end.
for a in (1.5, 3.8):
    rec = lifschitz_counterexample(r=1.0, a=a)
    t = rec.tree
    print(f"\ncounterexample at b = 2 (r=1, a={a}), u clamped: {rec.clamped}")
    print("  u =", rec.u, " v =", rec.v, " diam[u,v] =", rec.uv_diameter)
    print("  inside both balls:", rec.containment_ok,
          " d(u, v) > 2r:", t.distance(rec.u, rec.v) > 2.0 * rec.r,
          " d(midpoint, u) > r:", t.distance(t.midpoint(rec.u, rec.v), rec.u) > rec.r)

# Randomized two-sided probe on an arbitrary tree.
rng_tree = random_tree(np.random.default_rng(5), n_nodes=15)
report = kappa_probe(rng_tree, trials=50, rng=5)
print("\nkappa probe on a random 15-node tree:")
print("  witness trials:", report.witness_trials,
      " failures:", report.witness_failures)
print("  counterexample templates verified:",
      report.counterexample_trials - report.counterexample_failures)
print("  consistent with characteristic 2:", report.consistent)
