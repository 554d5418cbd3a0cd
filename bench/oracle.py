"""Independent ground truth and output checks.

Nothing here imports ``metrictrees``: distances come from a vectorized
binary-lifting table over numpy arrays, and tree-metric verdicts from a
brute numpy triangle scan and four-point scan.  The checks read only what the
CLI wrote (exit code and JSON report), so a defect in any library layer shows
up as a failed request.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

REL_TOL = 1e-8  # loose against float noise, far below any generated gap


class TreeMetric:
    """Rooted tree on nodes ``0..n-1`` with ``parent[i] < i`` and root 0.

    A point is a pair (c, s): the point at distance ``s`` above node ``c``
    on the edge to its parent (``s == 0`` is the node itself).
    """

    def __init__(self, parent: np.ndarray, length: np.ndarray):
        self.n = n = len(parent)
        self.parent = parent
        self.length = length
        up = np.where(parent < 0, 0, parent)
        acc = np.where(parent < 0, 0.0, length)
        hops = (parent >= 0).astype(np.int64)
        self.up = [up]
        for _ in range(max(1, (n - 1).bit_length())):
            acc = acc + acc[up]
            hops = hops + hops[up]
            up = up[up]
            self.up.append(up)
        self.root_dist = acc
        self.depth = hops

    @classmethod
    def from_edges(cls, n: int, edges: list[tuple[int, int, float]]) -> tuple["TreeMetric", np.ndarray]:
        """Relabel an arbitrary edge list; returns (metric, file id -> label)."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        label = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        length = np.zeros(n)
        label[0] = 0
        order = [0]
        for u in order:
            for v, w in adj[u]:
                if label[v] < 0:
                    label[v] = len(order)
                    parent[label[v]] = label[u]
                    length[label[v]] = w
                    order.append(v)
        if len(order) != n:
            raise ValueError("edge list is not a connected tree")
        return cls(parent, length), label

    def lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        swap = self.depth[a] < self.depth[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        diff = self.depth[a] - self.depth[b]
        for k, row in enumerate(self.up):
            a = np.where((diff >> k) & 1 == 1, row[a], a)
        for row in reversed(self.up):
            ra, rb = row[a], row[b]
            move = ra != rb
            a = np.where(move, ra, a)
            b = np.where(move, rb, b)
        return np.where(a == b, a, self.up[0][a])

    def dist(self, c1, s1, c2, s2) -> np.ndarray:
        c1, c2 = np.asarray(c1), np.asarray(c2)
        h1 = self.root_dist[c1] - s1
        h2 = self.root_dist[c2] - s2
        w = self.lca(c1, c2)
        nested = (w == c1) | (w == c2)
        return np.where(nested, np.abs(h1 - h2), h1 + h2 - 2.0 * self.root_dist[w])

    def pairwise(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        k = len(c)
        i, j = np.divmod(np.arange(k * k), k)
        return self.dist(c[i], s[i], c[j], s[j]).reshape(k, k)

    def locate(self, rec: dict, inv: np.ndarray) -> tuple[int, float]:
        """Internal (c, s) of a report point record written in file ids."""
        if rec["kind"] == "node":
            return int(inv[rec["node"]]), 0.0
        a, b, off = int(inv[rec["u"]]), int(inv[rec["v"]]), float(rec["offset"])
        if self.parent[b] == a:
            return b, float(self.length[b]) - off
        if self.parent[a] == b:
            return a, off
        raise ValueError(f"report names a non-edge ({rec['u']}, {rec['v']})")

    def locate_all(self, records: list[dict], inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        where = [self.locate(r, inv) for r in records]
        return np.array([c for c, _ in where], dtype=np.int64), np.array([s for _, s in where])


@lru_cache(maxsize=None)
def _quadruples(k: int) -> np.ndarray:
    return np.array(list(combinations(range(k), 4)), dtype=np.int64).reshape(-1, 4)


def matrix_verdict(d: np.ndarray) -> tuple[bool, bool]:
    """(is a metric, is a tree metric): the triangle and four-point scans."""
    slack = REL_TOL * max(float(d.max(initial=0.0)), 1.0)
    if (d[:, None, :] > d[:, :, None] + d[None, :, :] + slack).any():
        return False, False
    i, j, k, l = _quadruples(len(d)).T
    sums = np.stack([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
    top, low = sums.max(axis=0), sums.min(axis=0)
    second = sums.sum(axis=0) - top - low
    return True, bool((top - second <= 2.0 * slack).all())


# --------------------------------------------------------------------- #
# Output checks: each returns None when the request is correct            #
# --------------------------------------------------------------------- #


def check_tree_request(kind: str, case, argv: list[str], code: int, report: dict) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    m = case.metric
    tol = REL_TOL * max(case.diam, 1.0)
    if kind == "kappa":
        return None if report["report"]["consistent"] is True else "kappa probe is not consistent"

    inv = np.argsort(case.perm)
    gc, gs = m.locate_all(report["points"], inv)
    if len(gc) != len(case.pt_node):
        return f"report lists {len(gc)} points, expected {len(case.pt_node)}"
    moved = m.dist(gc, gs, case.pt_node, case.pt_up)
    if moved.max() > tol:
        return "report points differ from the input points"

    if kind == "measure":
        rep = report["report"]
        if rep["passed"] is not True:
            return "measure report did not pass"
        for key in ("alpha", "beta", "beta_star"):
            vals = [v["value"] for v in rep[key]["values"]]
            if len(vals) != 4 or any(b > a + tol for a, b in zip(vals, vals[1:])):
                return f"{key} profile is not 4 nonincreasing values: {vals}"
        beta1 = rep["beta"]["values"][0]["value"]
        if abs(beta1 - 0.5 * case.diam) > tol:
            return f"beta_1 = {beta1!r}, expected half the diameter {0.5 * case.diam!r}"
        return None

    bound = float(argv[argv.index("--radius" if kind == "cover_radius" else "--diameter") + 1])
    if kind == "cover_radius":
        cover = report["cover"]
        cc, cs = m.locate_all(cover["centers"], inv)
        assign = np.asarray(cover["assignment"], dtype=np.int64)
        if len(assign) != len(case.pt_node) or assign.min() < 0 or assign.max() >= len(cc):
            return "cover assignment does not map every point to a center"
        reach = m.dist(cc[assign], cs[assign], case.pt_node, case.pt_up)
        if reach.max() > bound + tol:
            return f"a point lies {float(reach.max())!r} from its center, radius {bound!r}"
        return None

    blocks = report["partition"]["blocks"]
    if sorted(i for b in blocks for i in b) != list(range(len(case.pt_node))):
        return "partition blocks do not cover every point exactly once"
    d = m.pairwise(case.pt_node, case.pt_up)
    worst = max(d[np.ix_(b, b)].max(initial=0.0) for b in blocks)
    if worst > bound + tol:
        return f"a block has diameter {float(worst)!r}, bound {bound!r}"
    return None


def check_matrix_request(kind: str, case, tree_out: str, code: int, report: dict) -> str | None:
    want = 0 if case.additive else 2
    if code != want:
        return f"exit code {code}, expected {want}"
    if kind == "check":
        return None if report["is_tree_metric"] is case.additive else "wrong verdict"
    if report["built"] is not case.additive:
        return "wrong verdict"
    if not case.additive:
        return None
    if not report["max_deviation"] <= 1e-6 * case.scale:
        return f"max_deviation {report['max_deviation']!r} exceeds 1e-6 * scale"
    return _check_built_tree(case, tree_out)


def _check_built_tree(case, path: str) -> str | None:
    """Re-measure the label distances on the tree document ``build`` wrote."""
    edges, where = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            w = line.split()
            if w and w[0] == "edge":
                edges.append((int(w[1]), int(w[2]), float(w[3])))
            elif w and w[0] == "point" and w[2] == "node":
                where[w[1]] = int(w[3])
    if sorted(where) != sorted(case.labels):
        return "built tree does not place every label on a node"
    metric, label = TreeMetric.from_edges(len(edges) + 1, edges)
    nodes = label[[where[lab] for lab in case.labels]]
    got = metric.pairwise(nodes, np.zeros(len(nodes)))
    if np.abs(got - case.values).max() > 1e-6 * case.scale:
        return "built tree does not reproduce the matrix"
    return None
