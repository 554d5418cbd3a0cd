"""Finite metric trees with exact geodesic queries.

A finite metric tree is a connected acyclic graph whose edges carry strictly
positive lengths, together with the induced shortest-path metric.  Between any
two points there is a unique geodesic, so distance, betweenness, segment,
midpoint, and median queries all have exact answers.

Points live either on a node or in the interior of an edge (``TreePoint``),
and every query accepts both.  A ``Segment`` is the geodesic between two
points, parameterized by arc length: ``Segment.point_at`` is an isometry from
``[0, total_length]`` onto the segment.

``MetricTree`` is immutable after validation.  All queries are read-only and
safe to call from concurrent threads.  The numpy arrays behind
``MetricTree.distances`` (preorder intervals and root distances per tree,
anchor arrays per ``PointArray``) are built on first use and assigned once;
a build is deterministic, so two threads that race on it store equal arrays
and neither ever sees a partial one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParams,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    ForeignPoint,
    NonpositiveEdgeLength,
    ParameterOutOfRange,
    TooFewPoints,
)

__all__ = [
    "Tolerance",
    "MetricTree",
    "TreePoint",
    "PointArray",
    "Segment",
    "validate_tree",
    "segment_intersection",
    "is_metric_segment",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative slack for real-valued comparisons.

    Two reals compare equal when they differ by at most
    ``max(abs_eps, rel_eps * scale)``, whichever of the two bounds is looser
    at the magnitude being compared.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not all(0 <= eps < math.inf for eps in (self.abs_eps, self.rel_eps)):
            raise BadParams("tolerance components must be finite and nonnegative")

    def slack(self, scale: float) -> float:
        return max(self.abs_eps, self.rel_eps * abs(scale))

    def close(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.slack(max(abs(a), abs(b)))

    def leq(self, a: float, b: float) -> bool:
        """a <= b up to slack at the magnitude of the operands."""
        return a <= b + self.slack(max(abs(a), abs(b)))

    def leq_array(self, a: np.ndarray, b: float) -> np.ndarray:
        """Elementwise ``leq``; each verdict equals the scalar one."""
        scale = np.maximum(np.abs(a), abs(b))
        return a <= b + np.maximum(self.abs_eps, self.rel_eps * scale)


class TreePoint:
    """A location in a metric tree: a node, or a position inside an edge.

    Canonical form: an edge offset within ``abs_eps`` of 0 or of the edge
    length collapses to the corresponding node, so equality of points is
    equality of canonical forms.  Edge offsets are measured from the stored
    tail node of the edge.

    Construct via ``MetricTree.node_point`` / ``MetricTree.edge_point``.
    """

    __slots__ = ("tree", "node", "edge", "offset")

    def __init__(self, tree: "MetricTree", node: int | None, edge: int | None, offset: float):
        self.tree = tree
        self.node = node
        self.edge = edge
        self.offset = offset

    @property
    def is_node(self) -> bool:
        return self.node is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePoint):
            return NotImplemented
        return (
            self.tree is other.tree
            and self.node == other.node
            and self.edge == other.edge
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((id(self.tree), self.node, self.edge, self.offset))

    def __repr__(self) -> str:
        if self.node is not None:
            return f"TreePoint(node={self.node})"
        u, v = self.tree.edge_nodes(self.edge)
        return f"TreePoint(edge=({u}, {v}), offset={self.offset!r})"

    def record(self) -> dict:
        """Tree-independent description (used for serialization and tests)."""
        if self.node is not None:
            return {"kind": "node", "node": self.node}
        u, v = self.tree.edge_nodes(self.edge)
        return {"kind": "edge", "u": u, "v": v, "offset": self.offset}


class PointArray(Sequence[TreePoint]):
    """A read-only sequence of points of one tree, stored as numpy arrays.

    Point ``i`` is the node ``node[i]`` when that is nonnegative, and
    otherwise the interior point of edge ``edge[i]`` at ``offset[i]`` from
    its tail, in canonical form.  Items are built on indexing and equal the
    ``TreePoint`` they describe; ``MetricTree.distances`` reads the arrays.
    """

    __slots__ = ("tree", "node", "edge", "offset", "_anchor_arrays")

    def __init__(self, tree: "MetricTree", node: np.ndarray, edge: np.ndarray, offset: np.ndarray):
        self.tree = tree
        self.node = np.asarray(node, dtype=np.intp)
        self.edge = np.asarray(edge, dtype=np.intp)
        self.offset = np.asarray(offset, dtype=np.float64)
        for arr in (self.node, self.edge, self.offset):
            arr.flags.writeable = False
        self._anchor_arrays: tuple[np.ndarray, ...] | None = None

    @classmethod
    def of(cls, tree: "MetricTree", points: Sequence[TreePoint]) -> "PointArray":
        """``points`` as a PointArray of ``tree`` (itself if it already is one)."""
        if isinstance(points, PointArray):
            if points.tree is not tree:
                raise ForeignPoint("points belong to a different tree")
            return points
        node, edge, offset = [], [], []
        for p in points:
            tree._own(p)
            node.append(-1 if p.node is None else p.node)
            edge.append(-1 if p.edge is None else p.edge)
            offset.append(p.offset)
        return cls(tree, node, edge, offset)

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointArray(self.tree, self.node[i], self.edge[i], self.offset[i])
        node = int(self.node[i])
        if node >= 0:
            return TreePoint(self.tree, node, None, 0.0)
        return TreePoint(self.tree, None, int(self.edge[i]), float(self.offset[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return f"PointArray({len(self)} points)"

    def _anchors(self) -> tuple[np.ndarray, ...]:
        # (node, cost) of both anchors of every point, as in MetricTree._anchors;
        # a node's second anchor repeats its first
        anchors = self._anchor_arrays
        if anchors is None:
            k = self.tree._kernel()
            a1, a2 = self.node.copy(), self.node.copy()
            c2 = np.zeros(len(self))
            inside = np.flatnonzero(self.node < 0)
            e = self.edge[inside]
            a1[inside] = k.edge_u[e]
            a2[inside] = k.edge_v[e]
            c2[inside] = k.lengths[e] - self.offset[inside]
            anchors = self._anchor_arrays = (a1, self.offset, a2, c2)
        return anchors


class _KernelArrays(NamedTuple):
    """Per-tree arrays of the batched distance kernel."""

    tin: np.ndarray  # preorder position of each node
    end: np.ndarray  # by position: one past the last position of its subtree
    root_dist: np.ndarray  # by node
    pre_root_dist: np.ndarray  # by position
    edge_u: np.ndarray
    edge_v: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True, eq=False)
class Segment:
    """The unique geodesic between two points of a metric tree.

    ``node_chain`` lists the nodes traversed strictly between the endpoints
    (endpoints themselves are excluded when they are nodes).  ``point_at``
    realizes the arc-length parameterization: for s, t in
    ``[0, total_length]``, ``d(point_at(s), point_at(t)) == |s - t|``.
    """

    a: TreePoint
    b: TreePoint
    node_chain: tuple[int, ...]
    total_length: float

    @property
    def tree(self) -> "MetricTree":
        return self.a.tree

    @cached_property
    def _stations(self) -> tuple[tuple[TreePoint, ...], tuple[float, ...]]:
        # Waypoints along the geodesic with cumulative arc length; consecutive
        # waypoints always lie on one common edge.
        tree = self.tree
        pts = [self.a, *(tree.node_point(i) for i in self.node_chain), self.b]
        cum = [0.0]
        for s, t in zip(pts, pts[1:]):
            if s == t:
                leg = 0.0
            else:
                e = tree._shared_edge(s, t)
                leg = abs(tree._coord_on_edge(s, e) - tree._coord_on_edge(t, e))
            cum.append(cum[-1] + leg)
        return tuple(pts), tuple(cum)

    def point_at(self, t: float) -> TreePoint:
        """The point at arc length ``t`` from endpoint ``a``."""
        tol = self.tree.tol
        slack = tol.slack(max(self.total_length, abs(t)))
        if not (math.isfinite(t) and -slack <= t <= self.total_length + slack):
            raise ParameterOutOfRange(
                f"arc length {t!r} outside [0, {self.total_length!r}]"
            )
        t = min(max(t, 0.0), self.total_length)
        if t <= 0.0:
            return self.a
        if t >= self.total_length:
            return self.b
        pts, cum = self._stations
        i = bisect_right(cum, t) - 1
        i = min(i, len(pts) - 2)
        if t == cum[i]:
            return pts[i]
        if t == cum[i + 1]:
            return pts[i + 1]
        tree = self.tree
        e = tree._shared_edge(pts[i], pts[i + 1])
        cs = tree._coord_on_edge(pts[i], e)
        ct = tree._coord_on_edge(pts[i + 1], e)
        delta = t - cum[i]
        coord = cs + delta if ct > cs else cs - delta
        return tree._edge_point_at(e, coord)

    def contains(self, p: TreePoint) -> bool:
        """Membership test; agrees with betweenness of (a, p, b)."""
        return self.tree.is_between(self.a, p, self.b)

    def sample(self, k: int) -> list[TreePoint]:
        """``k + 1`` evenly spaced points including both endpoints."""
        if k < 1:
            return [self.a, self.b]
        return [self.point_at(self.total_length * j / k) for j in range(k + 1)]

    def intersect(self, other: "Segment") -> "Segment | None":
        """Exact intersection with another segment of the same tree.

        In a tree the intersection of two geodesics is itself a geodesic
        (possibly a single point) or empty: the endpoints are the projections
        of the other segment's endpoints onto this one.
        """
        tree = self.tree
        if other.tree is not tree:
            raise ForeignPoint("segments belong to different trees")
        p = tree.median(self.a, self.b, other.a)
        if not tree.is_between(other.a, p, other.b):
            return None
        q = tree.median(self.a, self.b, other.b)
        return tree.segment(p, q)

    def __repr__(self) -> str:
        return (
            f"Segment({self.a!r} -> {self.b!r}, chain={self.node_chain}, "
            f"length={self.total_length!r})"
        )


class MetricTree:
    """Immutable weighted tree with the shortest-path metric.

    Nodes are ``0..n_nodes-1``.  Validation rejects cycles, disconnection,
    duplicate edges, and nonpositive lengths.  A single-node tree (no edges)
    is legal; all its distances are zero.

    Distance queries resolve through a rooted ancestor structure (binary
    lifting at node 0), so point-to-point distance costs O(log n);
    ``distances`` measures one point against many in O(n + len(qs)).
    """

    __slots__ = (
        "n_nodes",
        "edges",
        "tol",
        "_edge_u",
        "_edge_v",
        "_lengths",
        "_adj",
        "_edge_between",
        "_parent",
        "_hops",
        "_root_dist",
        "_up",
        "_degree",
        "_kernel_arrays",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        tol: Tolerance | None = None,
    ):
        if not isinstance(n_nodes, int) or n_nodes < 1:
            raise BadParams("n_nodes must be a positive integer")
        self.tol = tol if tol is not None else Tolerance()
        edge_list: list[tuple[int, int, float]] = []
        seen: set[tuple[int, int]] = set()
        uf = list(range(n_nodes))

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        for raw in edges:
            u, v, length = int(raw[0]), int(raw[1]), float(raw[2])
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise BadParams(f"edge ({u}, {v}) references a node outside 0..{n_nodes - 1}")
            if not (math.isfinite(length) and length > 0.0):
                raise NonpositiveEdgeLength(
                    f"edge ({u}, {v}) has length {length!r}; must be positive and finite"
                )
            if u == v:
                raise CycleDetected(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) appears more than once")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
            uf[ru] = rv
            edge_list.append((u, v, length))

        if len(edge_list) != n_nodes - 1:
            raise Disconnected(
                f"{n_nodes} nodes need {n_nodes - 1} edges to be connected, got {len(edge_list)}"
            )

        self.n_nodes = n_nodes
        self.edges = tuple(edge_list)
        self._edge_u = tuple(e[0] for e in edge_list)
        self._edge_v = tuple(e[1] for e in edge_list)
        self._lengths = tuple(e[2] for e in edge_list)

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
        edge_between: dict[tuple[int, int], int] = {}
        for idx, (u, v, _length) in enumerate(edge_list):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
            edge_between[(u, v)] = idx
            edge_between[(v, u)] = idx
        self._adj = tuple(tuple(nbrs) for nbrs in adj)
        self._edge_between = edge_between
        self._degree = tuple(len(nbrs) for nbrs in adj)

        # Rooted ancestor structure (root = node 0).
        parent = [-1] * n_nodes
        hops = [0] * n_nodes
        root_dist = [0.0] * n_nodes
        stack = [0]
        visited = [False] * n_nodes
        visited[0] = True
        while stack:
            u = stack.pop()
            for v, idx in self._adj[u]:
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    hops[v] = hops[u] + 1
                    root_dist[v] = root_dist[u] + self._lengths[idx]
                    stack.append(v)
        self._parent = tuple(parent)
        self._hops = tuple(hops)
        self._root_dist = tuple(root_dist)

        levels = max(1, max(hops).bit_length()) if n_nodes > 1 else 1
        up = [[p if p >= 0 else u for u, p in enumerate(parent)]]
        for _ in range(1, levels):
            prev = up[-1]
            up.append([prev[prev[u]] for u in range(n_nodes)])
        self._up = tuple(tuple(row) for row in up)
        self._kernel_arrays: _KernelArrays | None = None

    # ------------------------------------------------------------------ #
    # Construction of points                                              #
    # ------------------------------------------------------------------ #

    def node_point(self, node: int) -> TreePoint:
        if not (0 <= node < self.n_nodes):
            raise BadParams(f"node {node} does not exist (tree has {self.n_nodes} nodes)")
        return TreePoint(self, node, None, 0.0)

    def edge_point(self, u: int, v: int, offset: float) -> TreePoint:
        """Point at ``offset`` from ``u`` along the edge (u, v).

        Offsets within ``abs_eps`` of an endpoint canonicalize to that node;
        offsets beyond ``[0, length]`` raise ParameterOutOfRange.
        """
        idx = self._edge_between.get((u, v))
        if idx is None:
            raise BadParams(f"no edge between nodes {u} and {v}")
        offset = float(offset)
        length = self._lengths[idx]
        if not -self.tol.abs_eps <= offset <= length + self.tol.slack(length):  # also rejects NaN
            raise ParameterOutOfRange(
                f"offset {offset!r} outside [0, {length!r}] on edge ({u}, {v})"
            )
        if self._edge_u[idx] != u:
            offset = length - offset
        return self._edge_point_at(idx, offset)

    def _edge_point_at(self, idx: int, coord: float) -> TreePoint:
        length = self._lengths[idx]
        if coord <= self.tol.abs_eps:
            return TreePoint(self, self._edge_u[idx], None, 0.0)
        if coord >= length - self.tol.abs_eps:
            return TreePoint(self, self._edge_v[idx], None, 0.0)
        return TreePoint(self, None, idx, coord)

    # ------------------------------------------------------------------ #
    # Node-level structure                                                 #
    # ------------------------------------------------------------------ #

    def edge_nodes(self, idx: int) -> tuple[int, int]:
        return self._edge_u[idx], self._edge_v[idx]

    def edge_length(self, idx: int) -> float:
        return self._lengths[idx]

    def degree(self, node: int) -> int:
        return self._degree[node]

    def neighbors(self, node: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge index) pairs of a node."""
        return self._adj[node]

    def lca(self, u: int, v: int) -> int:
        hu, hv = self._hops[u], self._hops[v]
        if hu < hv:
            u, v = v, u
            hu, hv = hv, hu
        diff = hu - hv
        k = 0
        while diff:
            if diff & 1:
                u = self._up[k][u]
            diff >>= 1
            k += 1
        if u == v:
            return u
        for k in range(len(self._up) - 1, -1, -1):
            if self._up[k][u] != self._up[k][v]:
                u = self._up[k][u]
                v = self._up[k][v]
        return self._parent[u]

    def node_distance(self, u: int, v: int) -> float:
        w = self.lca(u, v)
        return self._root_dist[u] + self._root_dist[v] - 2.0 * self._root_dist[w]

    def _node_path(self, u: int, v: int) -> list[int]:
        """Node sequence from u to v inclusive."""
        w = self.lca(u, v)
        left = []
        a = u
        while a != w:
            left.append(a)
            a = self._parent[a]
        left.append(w)
        right = []
        b = v
        while b != w:
            right.append(b)
            b = self._parent[b]
        right.reverse()
        return left + right

    def same_structure(self, other: "MetricTree") -> bool:
        """Structural equality: same node count and same weighted edge set."""
        if self.n_nodes != other.n_nodes:
            return False
        canon = lambda es: sorted((min(u, v), max(u, v), l) for u, v, l in es)
        return canon(self.edges) == canon(other.edges)

    def __repr__(self) -> str:
        return f"MetricTree(n_nodes={self.n_nodes}, n_edges={len(self.edges)})"

    # ------------------------------------------------------------------ #
    # Point-level metric queries                                           #
    # ------------------------------------------------------------------ #

    def _own(self, p: TreePoint) -> None:
        if p.tree is not self:
            raise ForeignPoint("point belongs to a different tree")

    def _anchors(self, p: TreePoint) -> tuple[tuple[int, float], ...]:
        if p.node is not None:
            return ((p.node, 0.0),)
        e = p.edge
        return (
            (self._edge_u[e], p.offset),
            (self._edge_v[e], self._lengths[e] - p.offset),
        )

    def distance(self, x: TreePoint, y: TreePoint) -> float:
        """Exact geodesic length between two points."""
        self._own(x)
        self._own(y)
        return self._dist(x, y)

    def distances(self, p: TreePoint, qs: Sequence[TreePoint]) -> np.ndarray:
        """``distance(p, q)`` for every q in ``qs``, bit for bit, as an array.

        Each anchor of p costs one O(n) numpy pass that measures it against
        every node; each q then combines its anchors in ``_dist``'s order, so
        no entry differs from the scalar query even in the last bit.
        """
        self._own(p)
        qs = PointArray.of(self, qs)
        a1, c1, a2, c2 = qs._anchors()
        out = None
        for s, c in self._anchors(p):
            ds = self._node_distances(s)
            d = np.minimum((c + ds[a1]) + c1, (c + ds[a2]) + c2)
            out = d if out is None else np.minimum(out, d)
        if p.edge is not None:
            same = qs.edge == p.edge
            out[same] = np.abs(p.offset - qs.offset[same])
        return out

    def _node_distances(self, s: int) -> np.ndarray:
        """``node_distance(s, v)`` for every node v.

        The ancestors of s are the positions whose preorder interval holds
        s's position; their nested intervals cut the preorder into runs that
        share one lowest common ancestor with s.
        """
        k = self._kernel()
        t = k.tin[s]
        anc = np.flatnonzero(k.end[: t + 1] > t)  # root first
        ends = k.end[anc]
        runs = np.concatenate((np.diff(anc), ends[-1:] - t, -np.diff(ends)[::-1]))
        rd_anc = k.pre_root_dist[anc]
        lca_rd = np.repeat(np.concatenate((rd_anc, rd_anc[-2::-1])), runs)[k.tin]
        rd = k.root_dist
        return rd[s] + rd - 2.0 * lca_rd

    def _kernel(self) -> _KernelArrays:
        k = self._kernel_arrays
        if k is None:
            adj, parent = self._adj, self._parent
            order: list[int] = []
            stack = [0]
            while stack:
                u = stack.pop()
                order.append(u)
                for v, _e in adj[u]:
                    if v != parent[u]:
                        stack.append(v)
            size = [1] * self.n_nodes
            for u in reversed(order[1:]):
                size[parent[u]] += size[u]
            order_arr = np.array(order, dtype=np.intp)
            tin = np.empty(self.n_nodes, dtype=np.intp)
            tin[order_arr] = np.arange(self.n_nodes)
            root_dist = np.array(self._root_dist)
            k = self._kernel_arrays = _KernelArrays(
                tin=tin,
                end=np.arange(self.n_nodes) + np.array(size, dtype=np.intp)[order_arr],
                root_dist=root_dist,
                pre_root_dist=root_dist[order_arr],
                edge_u=np.array(self._edge_u, dtype=np.intp),
                edge_v=np.array(self._edge_v, dtype=np.intp),
                lengths=np.array(self._lengths, dtype=np.float64),
            )
        return k

    def _dist(self, x: TreePoint, y: TreePoint) -> float:
        if x.node is not None and y.node is not None:
            return self.node_distance(x.node, y.node)
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset)
        return min(
            cx + self.node_distance(ax, ay) + cy
            for ax, cx in self._anchors(x)
            for ay, cy in self._anchors(y)
        )

    def is_between(self, x: TreePoint, y: TreePoint, z: TreePoint) -> bool:
        """True when y lies on the geodesic from x to z.

        Equivalent to ``d(x, z) == d(x, y) + d(y, z)`` up to tolerance.
        """
        self._own(x)
        self._own(y)
        self._own(z)
        dxz = self._dist(x, z)
        dxy = self._dist(x, y)
        dyz = self._dist(y, z)
        return abs(dxz - dxy - dyz) <= self.tol.slack(max(dxz, dxy + dyz))

    def _exit_node(self, p: TreePoint, q: TreePoint) -> int:
        """First node on the geodesic from p toward q (p itself if a node)."""
        if p.node is not None:
            return p.node
        e = p.edge
        u, v = self._edge_u[e], self._edge_v[e]
        du = p.offset + self._dist(self.node_point(u), q)
        dv = (self._lengths[e] - p.offset) + self._dist(self.node_point(v), q)
        return u if du <= dv else v

    def segment(self, x: TreePoint, y: TreePoint) -> Segment:
        """The unique geodesic from x to y."""
        self._own(x)
        self._own(y)
        if x == y:
            return Segment(x, y, (), 0.0)
        if x.edge is not None and x.edge == y.edge:
            return Segment(x, y, (), abs(x.offset - y.offset))
        ex = self._exit_node(x, y)
        ey = self._exit_node(y, x)
        chain = self._node_path(ex, ey)
        if x.node is not None:
            chain = chain[1:]
        if y.node is not None:
            chain = chain[:-1]
        return Segment(x, y, tuple(chain), self._dist(x, y))

    def point_at(self, x: TreePoint, y: TreePoint, t: float) -> TreePoint:
        """Point at arc length ``t`` from x on the geodesic to y."""
        return self.segment(x, y).point_at(t)

    def midpoint(self, x: TreePoint, y: TreePoint) -> TreePoint:
        s = self.segment(x, y)
        return s.point_at(0.5 * s.total_length)

    def median(self, x: TreePoint, y: TreePoint, z: TreePoint) -> TreePoint:
        """The branch point w of the triple (x, y, z).

        w is the unique point lying on all three pairwise geodesics; its
        distance from x along [x, y] is the Gromov product
        ``(d(x,y) + d(x,z) - d(y,z)) / 2``.  Degenerate triples return the
        forced point (``median(x, y, x) == x``).
        """
        self._own(x)
        self._own(y)
        self._own(z)
        dxy = self._dist(x, y)
        dxz = self._dist(x, z)
        dyz = self._dist(y, z)
        t = 0.5 * (dxy + dxz - dyz)
        t = min(max(t, 0.0), dxy)
        return self.segment(x, y).point_at(t)

    # ------------------------------------------------------------------ #
    # Shared-edge helpers used by Segment                                  #
    # ------------------------------------------------------------------ #

    def _shared_edge(self, s: TreePoint, t: TreePoint) -> int:
        if s.edge is not None:
            return s.edge
        if t.edge is not None:
            return t.edge
        idx = self._edge_between.get((s.node, t.node))
        if idx is None:
            raise BadParams(f"nodes {s.node} and {t.node} are not adjacent")
        return idx

    def _coord_on_edge(self, p: TreePoint, e: int) -> float:
        if p.edge is not None:
            return p.offset
        if p.node == self._edge_u[e]:
            return 0.0
        return self._lengths[e]


def validate_tree(
    n_nodes: int,
    edges: Iterable[tuple[int, int, float]],
    tol: Tolerance | None = None,
) -> MetricTree:
    """Validate raw node/edge lists and build a MetricTree.

    Raises CycleDetected, Disconnected, NonpositiveEdgeLength, or
    DuplicateEdge when the input is not a weighted tree.
    """
    return MetricTree(n_nodes, edges, tol=tol)


def segment_intersection(s1: Segment, s2: Segment) -> Segment | None:
    """Exact intersection of two segments; None when disjoint."""
    return s1.intersect(s2)


def is_metric_segment(points: Sequence[TreePoint]) -> bool:
    """Arc criterion for an ordered point sample with endpoints a, b.

    True iff every ordered pair (x, y) from the list satisfies "x between
    a and y" or "x between y and b".  A geodesic sampled in traversal order
    always passes; any point off the a-b geodesic (or out of order on it)
    fails.
    """
    pts = list(points)
    if len(pts) < 2:
        raise TooFewPoints("need at least two points")
    tree = pts[0].tree
    for p in pts:
        if p.tree is not tree:
            raise ForeignPoint("points belong to different trees")
    a, b = pts[0], pts[-1]
    for x in pts:
        for y in pts:
            if not (tree.is_between(a, x, y) or tree.is_between(y, x, b)):
                return False
    return True
