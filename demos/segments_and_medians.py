"""Geodesics, betweenness, midpoints, and medians on a small metric tree.

The running example is a trunk A--B of length 2 with unit branches B--C and
B--D.  Every pair of points has a unique geodesic, so these queries have
exact answers.
"""

from metrictrees import gallery, is_metric_segment

doc = gallery("simple")
tree = doc.tree
A, B, C, D = (doc.points[k] for k in "ABCD")

print("tree:", tree)
print("d(A, C) =", tree.distance(A, C), " (2 along the trunk + 1 up the branch)")
print("d(C, D) =", tree.distance(C, D))

# Betweenness: B separates A from both branch tips.
print("\nA-B-C in order?", tree.is_between(A, B, C))
print("C-A-D in order?", tree.is_between(C, A, D))

# The geodesic from C to D passes through the branch point B only.
s = tree.segment(C, D)
print("\nsegment(C, D): interior nodes", s.node_chain, "length", s.total_length)

# Arc-length parameterization is an isometry onto [0, length]:
for t in (0.0, 0.5, 1.0, 2.0):
    print(f"  point at arc length {t}: {s.point_at(t)}")

# The midpoint of A and C sits 1.5 units from A, inside the trunk.
print("\nmidpoint(A, C) =", tree.midpoint(A, C))

# The median of three points is where their pairwise geodesics branch.
w = tree.median(A, C, D)
print("median(A, C, D) =", w, " (the branch point B)")

# Its characterization via segment intersections:
inter = tree.segment(A, C).intersect(tree.segment(A, D))
print("[A,C] ∩ [A,D] runs from", inter.a, "to", inter.b)

# A sampled geodesic passes the arc criterion; a detour through a third
# branch does not.
print("\ngeodesic sample is a metric segment?",
      is_metric_segment(tree.segment(A, C).sample(5)))
print("detour through D as well?",
      is_metric_segment([A, B, D, C]))
