"""Finite metric trees with exact geodesic queries.

A finite metric tree is a connected acyclic graph whose edges carry strictly
positive lengths, together with the induced shortest-path metric.  Between any
two points there is a unique geodesic, so distance, betweenness, segment,
midpoint, and median queries all have exact answers.

Points live either on a node or in the interior of an edge (``TreePoint``),
and every query accepts both.  A ``Segment`` is the geodesic between two
points, parameterized by arc length: ``Segment.point_at`` is an isometry from
``[0, total_length]`` onto the segment.  Every arc-length query walks the
path from its start and stops once it passes the arc length asked for; it
steers by the rooted tables, never by comparing rounded sums of distances.

``MetricTree`` is immutable after validation.  All queries are read-only and
safe to call from concurrent threads.  The constructor builds every table a
query reads.  Only the ``MetricTree.edges`` tuple, the anchor arrays and span
index of each ``PointArray`` and ``Segment.node_chain`` are built on first use
and assigned once; a build is deterministic, so two threads that race on it
store equal values and neither ever sees a partial one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index, itemgetter
from typing import Iterable, NamedTuple, NoReturn, Sequence

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

_ROW_BLOCK = 64  # span rows per numpy pass of _distance_matrix

__all__ = [
    "Tolerance",
    "MetricTree",
    "TreePoint",
    "PointArray",
    "Segment",
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

    The distances between its own points come from its span index, built on
    first use in O(n): the distinct anchor nodes of the points sorted by
    preorder position ("slots"), and the root distance of the lowest common
    ancestor of each two adjacent slots.  Over a preorder, the lowest common
    ancestor of two nodes is the parent of the shallowest node strictly
    after the first, up to and including the second (Bender and
    Farach-Colton, "The LCA problem revisited", LATIN 2000), so one
    ``minimum.reduceat`` over the parents' root distances gives every
    adjacent pair, and the running minima of those outward from a slot give
    its row.  That makes each row O(k) for k points and all of them
    O(n + k^2).
    """

    __slots__ = ("tree", "node", "edge", "offset", "_anchor_arrays", "_span_index")

    def __init__(self, tree: "MetricTree", node: np.ndarray, edge: np.ndarray, offset: np.ndarray):
        self.tree = tree
        self.node = np.asarray(node, dtype=np.intp)
        self.edge = np.asarray(edge, dtype=np.intp)
        self.offset = np.asarray(offset, dtype=np.float64)
        for arr in (self.node, self.edge, self.offset):
            arr.flags.writeable = False
        self._anchor_arrays: tuple[np.ndarray, ...] | None = None
        self._span_index: tuple[np.ndarray, ...] | None = None

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
            tree = self.tree
            a1, a2 = self.node.copy(), self.node.copy()
            c2 = np.zeros(len(self))
            inside = np.flatnonzero(self.node < 0)
            e = self.edge[inside]
            a1[inside] = tree._ends[0::2][e]
            a2[inside] = tree._ends[1::2][e]
            c2[inside] = tree._edge_len[e] - self.offset[inside]
            anchors = self._anchor_arrays = (a1, self.offset, a2, c2)
        return anchors

    def _span(self) -> tuple[np.ndarray, ...]:
        # per anchor (rows: first, second) and point, its slot and its cost;
        # per slot its root distance; and bounds[j], the lca root distance of
        # slots j - 1 and j (+inf before the first slot and after the last)
        span = self._span_index
        if span is None:
            tree = self.tree
            a1, c1, a2, c2 = self._anchors()
            at, slot = np.unique(tree._tin[np.concatenate((a1, a2))], return_inverse=True)
            bounds = np.full(len(at) + 1, np.inf)
            if len(at) > 1:
                bounds[1:-1] = np.minimum.reduceat(tree._parent_rd[: at[-1] + 1], at[:-1] + 1)
            rd = tree._root_dist_arr[tree._preorder[at]]
            span = self._span_index = (slot.reshape(2, -1), np.stack((c1, c2)), rd, bounds)
        return span

    def _span_rows(self, rows: slice) -> np.ndarray:
        """``MetricTree.distance`` from each point of ``self[rows]`` to every
        point, bit for bit, as one row each.

        The lca root distance of two slots is the least bound between them,
        an exact root distance; node distances sum as ``_node_distances``
        does, and each pair of points combines its anchors as ``distances``
        does, the lower edge's offset first."""
        slots, costs, rd, bounds = self._span()
        src = slots[:, rows, None]  # (anchor, row, 1)
        at = np.arange(len(rd))
        after = np.minimum.accumulate(np.where(at > src, bounds[:-1], np.inf), axis=-1)
        before = np.minimum.accumulate(np.where(at < src, bounds[1:], np.inf)[..., ::-1], axis=-1)
        lca_rd = np.where(at == src, rd, np.minimum(after, before[..., ::-1]))
        nodes = rd[src] + rd - 2.0 * lca_rd
        # every pair of anchors: (row anchor, row, column anchor, column)
        pairs = nodes[:, :, slots]
        edge = self.edge
        own = edge[rows, None]
        q_first = (edge < own)[:, None]
        cp = costs[:, rows, None, None]
        pairs += np.where(q_first, costs, cp)
        pairs += np.where(q_first, cp, costs)
        out = pairs.min(axis=(0, 2))
        offset = self.offset
        return np.where((edge == own) & (edge >= 0), np.abs(offset[rows, None] - offset), out)

    def _span_row(self, i: int) -> np.ndarray:
        """``MetricTree.distance`` from point i to every point, in O(k)."""
        return self._span_rows(slice(i, i + 1))[0]


@dataclass(frozen=True, eq=False)
class Segment:
    """The unique geodesic between two points of a metric tree.

    ``MetricTree.segment`` returns ``Segment(a, b, total_length)`` and walks
    nothing.  ``node_chain`` lists the nodes strictly between the endpoints
    (endpoints that are nodes excluded); it is read off the path's legs on
    first access and cached.  ``point_at`` realizes the arc-length
    parameterization: for s, t in ``[0, total_length]``,
    ``d(point_at(s), point_at(t)) == |s - t|``.  Each call walks from ``a``
    anew, so ``sample(k)`` costs O(k * path length).
    """

    a: TreePoint
    b: TreePoint
    total_length: float

    @property
    def tree(self) -> "MetricTree":
        return self.a.tree

    @cached_property
    def node_chain(self) -> tuple[int, ...]:
        return tuple(stop for *_, stop in self.tree._legs(self.a, self.b))[:-1]

    def point_at(self, t: float) -> TreePoint:
        """The point at arc length ``t`` from endpoint ``a``."""
        return self.tree._point_along(self.a, self.b, self.total_length, t)

    def contains(self, p: TreePoint) -> bool:
        """Membership test; agrees with betweenness of (a, p, b)."""
        return self.tree.is_between(self.a, p, self.b)

    def sample(self, k: int) -> list[TreePoint]:
        """``k + 1`` evenly spaced points including both endpoints."""
        if k < 1:
            return [self.a, self.b]
        return [self.point_at(self.total_length * (j / k)) for j in range(k + 1)]

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

    Nodes are ``0..n_nodes-1``.  A single-node tree (no edges) is legal;
    all its distances are zero.  An edge list that is not a weighted tree
    raises a ``TreeValidationError`` naming its first bad edge:
    ``CycleDetected`` (self-loop or cycle), ``DuplicateEdge``,
    ``NonpositiveEdgeLength`` (zero, negative, or non-finite) or
    ``Disconnected``; an edge that is not a (u, v, length) triple of numbers
    (a bool, a string or a non-integral endpoint included) or names a node
    outside ``0..n_nodes-1`` raises ``BadParams``, as does a node so far from
    node 0 that a sum of two distances could overflow.

    The tables are built once, by numpy, from the edges as three columns.
    Edge ``e`` has the half-edges ``2e`` from its tail and ``2e + 1`` from
    its head; ``_ends[h]`` is the node half-edge h leaves, and the row
    ``_adj_half[_adj_start[x]:_adj_start[x + 1]]`` lists the half-edges
    leaving node x in edge order.  An Euler tour over them, ranked by
    pointer jumping, roots the tree at node 0 and validates it: the input
    is a tree when it has ``n_nodes - 1`` edges, every endpoint is in
    range, every length is finite and positive, every node has an edge and
    the tour runs over every half-edge.  Only when this check fails does a
    sequential union-find scan run, to name the first bad edge.

    The scalar queries read plain lists: per node its parent, parent edge,
    root distance and preorder interval ``[_enter, _leave)``, and the
    binary-lifting ancestor rows.  ``distances`` reads numpy arrays: the
    preorder of a depth-first walk taking children in descending edge
    order, each node's position in it (``_tin``), per position the end of
    its subtree (``_end``), and the root distances, summed parent first.
    w is v or an ancestor of v exactly when its interval holds v's
    position: ``lca``, ``_exit_node`` and ``_node_distances`` all test
    that.  Point-to-point distance costs O(log n); ``distances`` measures
    one point against many in O(n + len(qs)); among the k points of one
    ``PointArray``, its span index gives a row in O(k) and the matrix in
    O(n + k^2), reading the parents' root distances by preorder position.
    """

    __slots__ = (
        "n_nodes", "tol", "_edges", "_edge_u", "_edge_v", "_lengths",
        "_parent", "_parent_edge", "_root_dist", "_enter", "_leave", "_up",
        "_ends", "_edge_len", "_adj_start", "_adj_half",
        "_preorder", "_tin", "_end", "_root_dist_arr", "_parent_rd",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        tol: Tolerance | None = None,
    ):
        if not isinstance(n_nodes, int) or n_nodes < 1:
            raise BadParams("n_nodes must be a positive integer")
        self.n_nodes = n_nodes
        self.tol = tol if tol is not None else Tolerance()
        self._edges: tuple[tuple[int, int, float], ...] | None = None
        if type(edges) is not _Columns:  # transpose, then check the types
            edges = list(edges)
            try:
                raw = [list(map(itemgetter(k), edges)) for k in range(3)]
                typed = (list(map(conv, col)) for conv, col in zip((int, int, float), raw))
                columns = _Columns(*typed)
            except (LookupError, TypeError, ValueError, OverflowError):
                _raise_first_edge_fault(n_nodes, edges)  # an earlier edge's fault wins
            if not (
                all(map(_is_number_type, set(map(type, chain(*raw)))))
                and columns[:2] == (raw[0], raw[1])
            ):
                _raise_first_edge_fault(n_nodes, edges)
            edges = columns
        us, vs, lengths = edges
        n, m = n_nodes, len(us)
        try:
            ends = np.array((us, vs), dtype=np.intp).T.ravel()
        except OverflowError:  # an endpoint beyond any index
            ends = None
        lens = np.fromiter(lengths, np.float64, m)
        if ends is None or m != n - 1 or m and not (
            0 <= ends.min() and ends.max() < n and 0.0 < lens.min() and lens.max() < math.inf
        ):
            _raise_first_edge_fault(n, list(zip(us, vs, lengths)))
        # the rows: half-edges by node, then by edge (a stable sort of keys
        # this narrow is a radix sort, up to 65536 nodes)
        order = ends.astype(np.min_scalar_type(n)).argsort(kind="stable")
        deg = np.bincount(ends, minlength=n)
        start = np.zeros(n + 1, dtype=np.intp)
        deg.cumsum(out=start[1:])
        rooted = _tour(ends, order, start, deg, lens)
        if rooted is None:
            _raise_first_edge_fault(n, list(zip(us, vs, lengths)))
        (self._parent, self._parent_edge, self._root_dist, self._enter, self._leave,
         self._preorder, self._tin, self._end, self._root_dist_arr, self._parent_rd,
         height) = rooted
        far = int(self._root_dist_arr.argmax())
        if self._root_dist[far] > sys.float_info.max / 4:
            raise BadParams(f"node {far} lies {self._root_dist[far]!r} from node 0; sums overflow")
        up = [self._parent.copy()]
        up[0][0] = 0
        for _ in range(1, max(1, height.bit_length())):
            up.append(itemgetter(*up[-1])(up[-1]))  # prev[prev], sharing its ints
        self._up = tuple(up)
        self._edge_u, self._edge_v, self._lengths = us, vs, lengths
        self._ends, self._edge_len = ends, lens
        self._adj_start, self._adj_half = start, order

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (u, v, length) triples in input order."""
        if self._edges is None:
            self._edges = tuple(zip(self._edge_u, self._edge_v, self._lengths))
        return self._edges

    # ------------------------------------------------------------------ #
    # Construction of points                                              #
    # ------------------------------------------------------------------ #

    def node_point(self, node: int) -> TreePoint:
        u = self._node_id(node)
        if u is None:
            raise BadParams(f"node {node!r} does not exist (tree has {self.n_nodes} nodes)")
        return TreePoint(self, u, None, 0.0)

    def edge_point(self, u: int, v: int, offset: float) -> TreePoint:
        """Point at ``offset`` from ``u`` along the edge (u, v).

        Offsets within ``abs_eps`` of an endpoint canonicalize to that node;
        offsets beyond ``[0, length]`` raise ParameterOutOfRange.
        """
        iu, iv = self._node_id(u), self._node_id(v)
        idx = None if iu is None or iv is None else self._edge_of(iu, iv)
        if idx is None:
            raise BadParams(f"no edge between nodes {u} and {v}")
        offset = float(offset)
        length = self._lengths[idx]
        if not -self.tol.abs_eps <= offset <= length + self.tol.slack(length):  # also rejects NaN
            raise ParameterOutOfRange(
                f"offset {offset!r} outside [0, {length!r}] on edge ({u}, {v})"
            )
        if self._edge_u[idx] != iu:
            offset = length - offset
        return self._edge_point_at(idx, offset)

    def _edge_point_at(self, idx: int, coord: float) -> TreePoint:
        length = self._lengths[idx]
        if coord <= self.tol.abs_eps:
            return TreePoint(self, self._edge_u[idx], None, 0.0)
        if coord >= length - self.tol.abs_eps:
            return TreePoint(self, self._edge_v[idx], None, 0.0)
        return TreePoint(self, None, idx, coord)

    def _edge_points_at(self, edge: np.ndarray, coord: np.ndarray) -> PointArray:
        """``_edge_point_at`` over arrays: the points at tail coordinates
        ``coord`` on the edges ``edge``, canonical form included."""
        eps = self.tol.abs_eps
        node = np.where(coord >= self._edge_len[edge] - eps, self._ends[1::2][edge], -1)
        node = np.where(coord <= eps, self._ends[0::2][edge], node)
        inside = node < 0
        return PointArray(self, node, np.where(inside, edge, -1), np.where(inside, coord, 0.0))

    # ------------------------------------------------------------------ #
    # Node-level structure                                                 #
    # ------------------------------------------------------------------ #

    def edge_nodes(self, idx: int) -> tuple[int, int]:
        return self._edge_u[idx], self._edge_v[idx]

    def edge_length(self, idx: int) -> float:
        return self._lengths[idx]

    def degree(self, node: int) -> int:
        return self._adj_start.item(node + 1) - self._adj_start.item(node)

    def neighbors(self, node: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge index) pairs of a node, in edge order."""
        start = self._adj_start
        half = self._adj_half[start[node] : start[node + 1]]
        return tuple(zip(self._ends[half ^ 1].tolist(), (half >> 1).tolist()))

    def _node_id(self, node) -> int | None:
        """``node`` as a plain ``int`` when it names a node of this tree;
        None for anything else, bools included."""
        try:
            u = -1 if isinstance(node, bool) else index(node)
        except TypeError:
            return None
        return u if 0 <= u < self.n_nodes else None

    def _edge_of(self, u: int, v: int) -> int | None:
        """Index of the edge joining nodes u and v; None when they are not
        adjacent."""
        if self._parent[v] == u:
            return self._parent_edge[v]
        if self._parent[u] == v:
            return self._parent_edge[u]
        return None

    def lca(self, u: int, v: int) -> int:
        enter, leave = self._enter, self._leave
        t = enter[v]
        if enter[u] <= t < leave[u]:
            return u
        for row in reversed(self._up):
            w = row[u]
            if not enter[w] <= t < leave[w]:
                u = w
        return self._parent[u]

    def node_distance(self, u: int, v: int) -> float:
        w = self.lca(u, v)
        return self._root_dist[u] + self._root_dist[v] - 2.0 * self._root_dist[w]

    def same_structure(self, other: "MetricTree") -> bool:
        """Structural equality: same node count and same weighted edge set."""
        if self.n_nodes != other.n_nodes:
            return False
        canon = lambda es: sorted((min(u, v), max(u, v), l) for u, v, l in es)
        return canon(self.edges) == canon(other.edges)

    def __repr__(self) -> str:
        return f"MetricTree(n_nodes={self.n_nodes}, n_edges={self.n_nodes - 1})"

    # ------------------------------------------------------------------ #
    # Point-level metric queries                                           #
    # ------------------------------------------------------------------ #

    def _own(self, *points: TreePoint) -> None:
        for p in points:
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
        self._own(x, y)
        return self._dist(x, y)

    def distances(self, p: TreePoint, qs: Sequence[TreePoint]) -> np.ndarray:
        """``distance(p, q)`` for every q in ``qs``, bit for bit, as an array.

        Each anchor of p costs one O(n) numpy pass over every node; each q
        then combines its anchors in ``_dist``'s order (the lower edge's
        offset first), so no entry differs from the scalar query even in the
        last bit.  Sums run in place: a fresh array per step costs more.
        This is the kernel for a p outside the set; between the points of
        one set, ``PointArray._span_rows`` costs O(k) per row.
        """
        self._own(p)
        qs = PointArray.of(self, qs)
        a1, c1, a2, c2 = qs._anchors()
        q_first = None if p.edge is None else (qs.node < 0) & (qs.edge < p.edge)
        out = None
        for s, c in self._anchors(p):
            ds = self._node_distances(s)
            for a, cq in ((a1, c1), (a2, c2)):
                d = ds[a]
                swapped = None if q_first is None else cq + d
                d += c
                d += cq
                if swapped is not None:
                    swapped += c
                    np.copyto(d, swapped, where=q_first)
                out = d if out is None else np.minimum(out, d, out=out)
        if p.edge is not None:
            same = qs.edge == p.edge
            out[same] = np.abs(p.offset - qs.offset[same])
        return out

    def _distance_matrix(self, points: Sequence[TreePoint]) -> np.ndarray:
        """``distance`` between every two of ``points``, bit for bit: the
        span rows of their PointArray, O(n + k^2) for k points, read
        ``_ROW_BLOCK`` rows at a time so that no temporary outgrows the
        result."""
        arr = PointArray.of(self, points)
        k = len(arr)
        out = np.empty((k, k))
        for i in range(0, k, _ROW_BLOCK):
            out[i : i + _ROW_BLOCK] = arr._span_rows(slice(i, i + _ROW_BLOCK))
        return out

    def _node_distances(self, s: int) -> np.ndarray:
        """``node_distance(s, v)`` for every node v.

        The ancestors of s are the positions whose preorder interval holds
        s's position; their nested intervals cut the preorder into runs that
        share one lowest common ancestor with s.
        """
        tin, end, rd = self._tin, self._end, self._root_dist_arr
        t = tin[s]
        anc = np.flatnonzero(end[: t + 1] > t)  # root first
        ends = end[anc]
        runs = np.concatenate((np.diff(anc), ends[-1:] - t, -np.diff(ends)[::-1]))
        rd_anc = rd[self._preorder[anc]]
        lca_rd = np.repeat(np.concatenate((rd_anc, rd_anc[-2::-1])), runs)[tin]
        return rd[s] + rd - 2.0 * lca_rd

    def _ball_on_edges(self, center: TreePoint, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge arrays ``(lo, hi)``: the tail coordinates where B(center;
        rho) meets each edge, with ``lo > hi`` where it misses.  Off the
        center's edge, distance runs linearly through the nearer end, so the
        ball holds a prefix, a suffix or the whole edge; on it, ``[offset -
        rho, offset + rho]`` clipped.  Node distances match ``distances``."""
        dist = np.minimum.reduce([self._node_distances(s) + c for s, c in self._anchors(center)])
        length = self._edge_len
        reach_tail = rho - dist[self._ends[0::2]]
        reach_head = rho - dist[self._ends[1::2]]
        lo = np.where(reach_tail >= 0.0, 0.0, length - np.clip(reach_head, 0.0, length))
        hi = np.where(reach_head >= 0.0, length, np.minimum(reach_tail, length))
        if center.edge is not None:
            lo[center.edge] = max(center.offset - rho, 0.0)
            hi[center.edge] = min(center.offset + rho, self._lengths[center.edge])
        return lo, hi

    def _interval_ends(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, PointArray]:
        """The edges whose interval ``[lo, hi]`` of tail coordinates is not
        empty, and the points at both ends of each, two per edge in order."""
        met = np.flatnonzero(lo <= hi)
        return met, self._edge_points_at(np.repeat(met, 2), np.column_stack((lo, hi))[met].ravel())

    def _dist(self, x: TreePoint, y: TreePoint) -> float:
        if x.node is not None and y.node is not None:
            return self.node_distance(x.node, y.node)
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset)
        if x.edge is not None and y.edge is not None and y.edge < x.edge:
            x, y = y, x  # the lower edge's offset is summed first: d(x, y) == d(y, x)
        return min(cx + self.node_distance(ax, ay) + cy
                   for ax, cx in self._anchors(x) for ay, cy in self._anchors(y))

    def is_between(self, x: TreePoint, y: TreePoint, z: TreePoint) -> bool:
        """True when y lies on the geodesic from x to z.

        Equivalent to ``d(x, z) == d(x, y) + d(y, z)`` up to tolerance.
        """
        self._own(x, y, z)
        dxz, dxy, dyz = self._dist(x, z), self._dist(x, y), self._dist(y, z)
        return abs(dxz - dxy - dyz) <= self.tol.slack(max(dxz, dxy + dyz))

    def _exit_node(self, p: TreePoint, q: TreePoint) -> int:
        """First node on the geodesic from p toward a q off p's edge (p itself
        if a node): the lower end of p's edge when q lies in the subtree below
        it, the upper end otherwise."""
        if p.node is not None:
            return p.node
        u, v = self._edge_u[p.edge], self._edge_v[p.edge]
        low = v if self._parent[v] == u else u
        t = self._enter[self._edge_u[q.edge] if q.node is None else q.node]
        return low if self._enter[low] <= t < self._leave[low] else self._parent[low]

    def _legs(self, x: TreePoint, y: TreePoint):
        """The legs of the geodesic from x to y in path order, each as
        (edge, coordinate of its start, coordinate of its end, stop), where
        coordinates are offsets from the edge's tail and the stop is the node
        the leg ends at, or None for y inside an edge.  The climb to the
        lowest common ancestor is yielded as read; only the descent from
        there is collected first."""
        if x == y:
            return
        if x.edge is not None and x.edge == y.edge:
            yield x.edge, x.offset, y.offset, None
            return
        tail, length, parent, up_edge = self._edge_u, self._lengths, self._parent, self._parent_edge
        u, v = self._exit_node(x, y), self._exit_node(y, x)
        if x.node is None:
            e = x.edge
            yield e, x.offset, 0.0 if tail[e] == u else length[e], u
        w = self.lca(u, v)
        while u != w:
            e = up_edge[u]
            c = 0.0 if tail[e] == u else length[e]
            u = parent[u]
            yield e, c, length[e] - c, u
        down, node = [], v
        while node != w:
            down.append(node)
            node = parent[node]
        for node in reversed(down):
            e = up_edge[node]
            c = 0.0 if tail[e] == node else length[e]
            yield e, length[e] - c, c, node
        if y.node is None:
            e = y.edge
            yield e, 0.0 if tail[e] == v else length[e], y.offset, None

    def _point_along(self, x: TreePoint, y: TreePoint, total: float, t: float) -> TreePoint:
        """The point at arc length ``t`` from x toward y, ``total`` apart.

        Sums leg lengths from x in path order and stops on the first leg that
        ends past t, or on the last leg (the sum may fall short of ``total``);
        a t equal to a stop's sum returns that stop, the leg's start first.
        """
        slack = self.tol.slack(max(total, abs(t)))
        if not (math.isfinite(t) and -slack <= t <= total + slack):
            raise ParameterOutOfRange(f"arc length {t!r} outside [0, {total!r}]")
        t = min(max(t, 0.0), total)
        if t <= 0.0:
            return x
        if t >= total:
            return y
        legs = self._legs(x, y)
        start, before, leg = 0.0, None, next(legs)
        while True:
            e, cs, ct, stop = leg
            end = start + abs(cs - ct)
            if end > t or (after := next(legs, None)) is None:
                break
            start, before, leg = end, stop, after
        if t == start:  # never on the first leg, where start is 0.0 < t
            return TreePoint(self, before, None, 0.0)
        if t == end:
            return y if stop is None else TreePoint(self, stop, None, 0.0)
        delta = t - start
        return self._edge_point_at(e, cs + delta if ct > cs else cs - delta)

    def segment(self, x: TreePoint, y: TreePoint) -> Segment:
        """The unique geodesic from x to y."""
        return Segment(x, y, self.distance(x, y))

    def point_at(self, x: TreePoint, y: TreePoint, t: float) -> TreePoint:
        """Point at arc length ``t`` from x on the geodesic to y."""
        return self._point_along(x, y, self.distance(x, y), t)

    def midpoint(self, x: TreePoint, y: TreePoint) -> TreePoint:
        total = self.distance(x, y)
        return self._point_along(x, y, total, 0.5 * total)

    def median(self, x: TreePoint, y: TreePoint, z: TreePoint) -> TreePoint:
        """The branch point w of the triple (x, y, z).

        w is the unique point lying on all three pairwise geodesics; its
        distance from x along [x, y] is the Gromov product
        ``(d(x,y) + d(x,z) - d(y,z)) / 2``.  Degenerate triples return the
        forced point (``median(x, y, x) == x``).
        """
        dxy, dxz, dyz = self.distance(x, y), self.distance(x, z), self.distance(y, z)
        t = min(max(0.5 * (dxy + dxz - dyz), 0.0), dxy)
        return self._point_along(x, y, dxy, t)


def _is_number_type(kind: type) -> bool:
    """Whether values of ``kind`` may be edge values: real numbers, numpy's
    included, but not bools, which would read as 0 and 1."""
    return issubclass(kind, numbers.Real) and kind is not bool


def _positive_count(value, what: str) -> int:
    """``value`` as a plain ``int`` of at least 1; BadParams for anything else,
    bools and integral floats included."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    count = index(value) if integral else 0
    if count < 1:
        raise BadParams(f"{what} must be an integer >= 1, got {value!r}")
    return count


def _tour(ends: np.ndarray, order: np.ndarray, start: np.ndarray, deg: np.ndarray,
          lens: np.ndarray) -> tuple | None:
    """The rooted tables, root = node 0, from an Euler tour over the rows, or
    None when the edges are not a tree.

    Lists per node: parent, parent edge, root distance, preorder position
    and subtree end; arrays: the preorder, each node's position in it, per
    position the end of its subtree, the root distances, per position the
    root distance of its parent (+inf at the root); and the largest hop
    count.  The tour leaves each half-edge's head by the half-edge
    after its twin in that node's row, cut before it leaves node 0 again;
    pointer jumping counts the steps to the cut.  With n - 1 edges, a tour
    over every half-edge that touches every node proves a tree.  Of an
    edge's two half-edges, the first on the tour leads away from the root,
    and half the steps between them are the nodes below it.
    """
    n, two_m = len(deg), len(order)
    h = np.arange(two_m)
    pos = np.empty(two_m, dtype=np.intp)
    pos[order] = h
    dist = np.ones(two_m, dtype=np.intp)  # steps to the cut
    if two_m:
        if deg.min() == 0:
            return None
        after = h + 1  # the next position in the same row, cyclically
        after[start[1:] - 1] = start[:-1]
        succ = order[after[pos[h ^ 1]]]
        last = order[start[1] - 1] ^ 1
        succ[last] = last
        dist[last] = 0
        for _ in range((two_m - 2).bit_length()):
            dist += dist[succ]
            succ = succ[succ]
        if dist[order[0]] != two_m - 1:
            return None
    rank = two_m - 1 - dist
    r0, r1 = rank[0::2], rank[1::2]
    down = h[0::2] + (r1 < r0)  # per edge, the half-edge away from the root
    descend, ascend = np.minimum(r0, r1), np.maximum(r0, r1)
    size = (ascend - descend + 1) >> 1
    child, at = ends[down ^ 1], pos[down]
    parent, parent_edge, subtree = np.zeros((3, n), dtype=np.intp)
    tin = np.zeros(n, dtype=np.intp)  # kept by the tree, so not a row of that block
    parent[0], parent_edge[0], subtree[0] = -1, -1, n
    parent[child], parent_edge[child], subtree[child] = ends[down], h[: two_m // 2], size
    # a child's preorder position is its parent's, plus one, plus the sizes
    # of its siblings on higher edges, which a depth-first walk takes first
    later = np.zeros(two_m, dtype=np.intp)
    later[at] = size
    later = later.cumsum()
    skip = later[start[ends[down] + 1] - 1] - later[at] + 1
    steps = np.zeros(two_m, dtype=np.intp)
    steps[descend], steps[ascend] = skip, -skip
    tin[child] = steps.cumsum()[descend]
    steps[descend], steps[ascend] = 1, -1
    height = int(steps.cumsum().max(initial=0))  # hop counts are its values at descend
    positions = np.arange(n)
    preorder = np.empty(n, dtype=np.intp)
    preorder[tin] = positions
    # root distances by preorder position, each parent's before its children's
    below_root = preorder[1:]
    above = tin[parent[below_root]]
    by_position = [0.0]
    for at_parent, length in zip(above.tolist(), lens[parent_edge[below_root]].tolist()):
        by_position.append(by_position[at_parent] + length)
    by_position = np.fromiter(by_position, np.float64, n)
    parent_rd = np.concatenate(([math.inf], by_position[above]))
    root_dist = by_position[tin]
    leave = tin + subtree
    return (
        parent.tolist(), parent_edge.tolist(), root_dist.tolist(), tin.tolist(), leave.tolist(),
        preorder, tin, leave[preorder], root_dist, parent_rd, height,
    )


class _Columns(NamedTuple):
    """An edge list as columns of ``int`` endpoints and ``float`` lengths,
    which ``MetricTree`` builds from without checking their types again."""

    us: list[int]
    vs: list[int]
    lengths: list[float]


def _raise_first_edge_fault(n_nodes: int, edges: list) -> NoReturn:
    """Raise the error for the first edge, in input order, that keeps
    ``edges`` from being a tree on ``n_nodes`` nodes.

    ``MetricTree`` calls this only after its linear check has failed, so
    the sequential scan below only names the error.  Its union-find holds
    only the nodes the edges name, so a huge ``n_nodes`` costs nothing.
    """
    seen: set[tuple[int, int]] = set()
    uf: dict[int, int] = {}  # a node absent from uf is its own root

    def find(x: int) -> int:
        while uf.get(x, x) != x:
            uf[x] = uf.get(uf[x], uf[x])
            x = uf[x]
        return x

    count = 0
    for raw in edges:
        try:
            u, v, length = int(raw[0]), int(raw[1]), float(raw[2])
            for x in (raw[0], raw[1], raw[2]):
                if not _is_number_type(type(x)):
                    raise TypeError(f"{x!r} ({type(x).__name__}) is not a number")
            if (u, v) != (raw[0], raw[1]):
                raise ValueError(f"endpoint {raw[0] if u != raw[0] else raw[1]!r} is not an integer")
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise BadParams(f"edge {raw!r} is not a (u, v, length) triple: {exc}") from None
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
        count += 1
    # a forest with n - 1 edges spans all n nodes, so the count is off
    raise Disconnected(f"{n_nodes} nodes need {n_nodes - 1} edges to be connected, got {count}")


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
