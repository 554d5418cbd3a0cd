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
Beside the walk, one climb toward node 0 places a batch of points at once,
each the point the walk gives, bit for bit: the walk and the climb sum their
legs in the same order and end in one statement of the stop rules.

``MetricTree`` is immutable after validation, its tables read-only.  All
queries are read-only and safe to call from concurrent threads.  The
constructor builds every table a query reads, with the helpers of
``_build``, and keeps its id tables in 32-bit integers.  Only the anchor
arrays and span index of each ``PointArray`` and ``Segment.node_chain`` are
built on first use and assigned once; a build is deterministic, so two
threads that race on it store equal values and neither ever sees a partial
one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

import numpy as np

from ._build import (
    _Columns,
    _id_type,
    _is_number_type,
    _raise_first_edge_fault,
    _root_distances,
    _table,
    _tour,
    _triples,
    _typed_columns,
)
from .errors import BadParams, ForeignPoint, ParameterOutOfRange, TooFewPoints

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
        if not all(_is_number_type(type(eps)) and 0 <= eps <= sys.float_info.max
                   for eps in (self.abs_eps, self.rel_eps)):  # NaN, inf, ints beyond floats fail
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


_DEFAULT_TOL = Tolerance()  # frozen, so every tree built without one shares it


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
    ``TreePoint`` they describe; ``MetricTree.distances`` reads the arrays
    to measure a point outside the set against all of them.

    The distances between its own points, and from node 0 to each of them
    (the depths), come from its span index, built on first use in O(n) and
    then read in O(k): the distinct anchor nodes of the points sorted by
    preorder position ("slots"), and the root distance of the lowest common
    ancestor of each two adjacent slots.  Over a preorder, the lowest common
    ancestor of two nodes is the parent of the shallowest node strictly
    after the first, up to and including the second (Bender and
    Farach-Colton, "The LCA problem revisited", LATIN 2000), so one
    ``minimum.reduceat`` over the parents' root distances gives every
    adjacent pair, and the running minima of those outward from a slot give
    its row.  That makes each row O(k) for k points and all of them
    O(n + k^2); the depths are each point's nearer anchor root distance plus
    cost, O(k) for all of them.
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
        points = list(points)
        tree._own(*points)
        return cls(tree, [-1 if p.node is None else p.node for p in points],
                   [-1 if p.edge is None else p.edge for p in points], [p.offset for p in points])

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointArray(self.tree, self.node[i], self.edge[i], self.offset[i])
        node = int(self.node[i])
        if node >= 0:
            return TreePoint(self.tree, node, None, 0.0)
        return TreePoint(self.tree, None, int(self.edge[i]), float(self.offset[i]))

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
            # the slots are the used preorder positions, marked, in order
            tin = tree._tin.take(np.concatenate((a1, a2)))
            used = np.zeros(tree.n_nodes, dtype=bool)
            used[tin] = True
            at = used.nonzero()[0]
            slot_at = np.empty(tree.n_nodes, dtype=np.intp)
            slot_at[at] = np.arange(len(at))
            slot = slot_at.take(tin)
            bounds = np.full(len(at) + 1, np.inf)
            if len(at) > 1:
                bounds[1:-1] = np.minimum.reduceat(tree._parent_rd[: at[-1] + 1], at[:-1] + 1)
            rd = tree._root_dist_arr.take(tree._preorder.take(at))
            span = self._span_index = (slot.reshape(2, -1), np.array((c1, c2)), rd, bounds)
        return span

    def _span_rows(self, rows: slice | list[int]) -> np.ndarray:
        """``MetricTree.distance`` from each point of ``self[rows]`` to every
        point, bit for bit, as one row each; ``rows`` is a slice or a list of
        point indices, so one pass may read any rows in any order.

        The lca root distance of a row's slot and each slot is the least
        bound between them, exact: two running minima outward from the row's
        slot, O(slots) per row, never a slot x slot table, which a single row
        could not afford on a large set.  Node distances sum as
        ``_node_distances`` does; each pair of points combines its anchors as
        ``distances`` does, over all 2 x 2 anchor pairs at once."""
        slots, costs, rd, bounds = self._span()
        src = slots[:, rows, None]  # (anchor, row, 1)
        at = np.arange(len(rd))
        after = np.fmin.accumulate(np.where(at > src, bounds[:-1], np.inf), axis=-1)
        before = np.fmin.accumulate(np.where(at < src, bounds[1:], np.inf)[..., ::-1], axis=-1)
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
        return np.where((edge == own) & (own >= 0), np.abs(offset[rows, None] - offset), out)

    def _depths(self) -> np.ndarray:
        """``MetricTree.distance`` from node 0 to every point, bit for bit,
        in O(k): node 0 is every node's ancestor, so a point's depth is the
        nearer of its anchors' root distance plus cost."""
        slots, costs, rd, _bounds = self._span()
        return (rd[slots] + costs).min(axis=0)


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
        """``k + 1`` evenly spaced points including both endpoints; ``k >= 0``."""
        k = _count(k, "k", least=0)
        if k == 0:
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

    Nodes are ``0..n_nodes-1``, ``n_nodes`` an integer.  A single-node tree is legal;
    all its distances are zero.  An edge list that is not a weighted tree
    raises a ``TreeValidationError`` naming its first bad edge:
    ``CycleDetected`` (self-loop or cycle), ``DuplicateEdge``,
    ``NonpositiveEdgeLength`` (zero, negative, or non-finite) or
    ``Disconnected``; an edge that is not a (u, v, length) triple of numbers
    (a bool, a string or a non-integral endpoint included) or names a node
    outside ``0..n_nodes-1`` raises ``BadParams``, as does a node so far from
    node 0 that a sum of two distances could overflow.

    The tables are built once, by numpy, from the edges as two arrays
    (``_Columns``: the endpoints interleaved, and the lengths), by the
    helpers of ``_build``.  The tables of ids (nodes, edges, half-edges and
    preorder positions) are int32, or intp on a tree too large for int32
    (``_id_type``), which takes 35-40 % off the bytes a tree keeps per
    node.  The input columns, which pickle the tree, and the float tables
    keep their types.
    Edge ``e`` has the half-edges ``2e`` from its tail and ``2e + 1`` from
    its head; ``_ends[h]`` is the node half-edge h leaves, and the row
    ``_adj_half[_adj_start[x]:_adj_start[x + 1]]`` lists the half-edges
    leaving node x in edge order.  An Euler tour over them, ranked by
    pointer jumping, roots the tree at node 0 and validates it: the input
    is a tree when it has ``n_nodes - 1`` edges, every endpoint is in
    range, every length is finite and positive, every node has an edge and
    the tour runs over every half-edge.  Only when this check fails does a
    sequential union-find scan run, to name the first bad edge.

    The scalar queries read read-only memoryviews of the numpy tables,
    whose items index as plain ``int``s and ``float``s: per node its
    parent, parent edge, root distance and preorder interval ``[_enter,
    _leave)``, per edge its ends and length, and the binary-lifting
    ancestor rows, one numpy gather each.  w is v or an ancestor of v
    exactly when its interval holds v's position: ``lca`` and
    ``_exit_node`` test that.  The array kernels read the numpy arrays,
    all read-only: the preorder of a depth-first walk taking children in
    descending edge order, each node's position in it (``_tin``), the root
    distances, summed parent first, and per position its parent's root
    distance (``_parent_rd``).  Three kernels measure distance, each with
    one job, and agree bit for bit: ``distance`` a pair, in O(log n); the
    span index of a ``PointArray`` the points of one set among
    themselves, a row in O(k), the matrix in O(n + k^2) and the depths in
    O(k); and ``distances`` a point outside a set against all of it, in
    O(n + len(qs)).  The last two read the lca root distance of two
    preorder positions by the span rule (see ``PointArray``).  Two codes
    find a point by arc length, with one set of stop rules (``_on_leg``):
    ``_point_along`` walks ``_legs`` from x toward y, and ``_toward_root``
    climbs from many points toward node 0 at once, by doubling over the
    lifting rows, with the walk's bits.

    A node or edge id given to a query must be an integer in range, or
    the query raises ``BadParams``; the walks inside take their ids from
    the tables and skip that check.
    """

    __slots__ = (
        "n_nodes", "tol", "_edge_u", "_edge_v", "_lengths",
        "_parent", "_parent_edge", "_root_dist", "_enter", "_leave", "_up",
        "_ends", "_edge_len", "_adj_start", "_adj_half",
        "_preorder", "_tin", "_root_dist_arr", "_parent_rd",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        tol: Tolerance | None = None,
    ):
        self.n_nodes = n_nodes = _count(n_nodes, "n_nodes")
        self.tol = tol if tol is not None else _DEFAULT_TOL
        if type(edges) is not _Columns:
            edges = _typed_columns(n_nodes, edges)
        ends, lens = edges
        n, m = n_nodes, len(lens)
        if m != n - 1 or m and not (
            0 <= ends.min() and ends.max() < n and 0.0 < lens.min() and lens.max() < math.inf
        ):
            _raise_first_edge_fault(n, _triples(ends, lens))
        # the rows: half-edges by node, then by edge (a stable sort of keys
        # this narrow is a radix sort, up to 65536 nodes)
        order = ends.astype(np.min_scalar_type(n)).argsort(kind="stable")
        deg = np.bincount(ends, minlength=n)
        start = np.zeros(n + 1, dtype=np.intp)
        np.add.accumulate(deg, out=start[1:])
        rooted = _tour(ends, order, start, deg)
        del deg
        if rooted is None:
            _raise_first_edge_fault(n, _triples(ends, lens))
        parent, parent_edge, tin, leave, preorder, height = rooted
        del rooted  # so that each intp table goes at its cast below
        self._root_dist_arr, self._parent_rd = _root_distances(
            parent, parent_edge, tin, preorder, lens
        )
        self._root_dist = _table(self._root_dist_arr)
        far = int(self._root_dist_arr.argmax())
        if self._root_dist[far] > sys.float_info.max / 4:
            raise BadParams(f"node {far} lies {self._root_dist[far]!r} from node 0; sums overflow")
        # the kept id tables in 32 bits where every id fits; the tour ran in intp
        ids = _id_type(n)
        parent, parent_edge, tin, leave, preorder, start, order = (
            table.astype(ids, copy=False)
            for table in (parent, parent_edge, tin, leave, preorder, start, order)
        )
        self._tin, self._preorder = tin, preorder
        self._parent, self._parent_edge, self._enter, self._leave = map(
            _table, (parent, parent_edge, tin, leave)
        )
        row = parent.copy()
        row[0] = 0
        up = [row]
        for _ in range(1, max(1, height.bit_length())):
            up.append(row := row.take(row))  # take gathers by int32 ids faster than []
        self._up = tuple(map(_table, up))
        self._edge_u, self._edge_v, self._lengths = map(_table, (ends[0::2], ends[1::2], lens))
        self._ends, self._edge_len = ends, lens
        self._adj_start, self._adj_half = start, order
        for table in (self._tin, self._preorder, self._root_dist_arr, self._parent_rd,
                      start, order, ends, lens):
            table.setflags(write=False)

    def __reduce__(self):
        # the tables are memoryviews, which do not pickle; the columns rebuild them
        return MetricTree, (self.n_nodes, _Columns(self._ends, self._edge_len), self.tol)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (u, v, length) triples in input order."""
        return tuple(_triples(self._ends, self._edge_len))

    # ------------------------------------------------------------------ #
    # Construction of points                                              #
    # ------------------------------------------------------------------ #

    def node_point(self, node: int) -> TreePoint:
        return TreePoint(self, self._node(node), None, 0.0)

    def edge_point(self, u: int, v: int, offset: float) -> TreePoint:
        """Point at ``offset`` from ``u`` along the edge (u, v).

        Offsets within ``abs_eps`` of an endpoint canonicalize to that node;
        offsets beyond ``[0, length]``, and offsets that are no real number
        (bools and strings included), raise ParameterOutOfRange.
        """
        iu, iv = _id_below(u, self.n_nodes), _id_below(v, self.n_nodes)
        idx = None if iu is None or iv is None else self._edge_of(iu, iv)
        if idx is None:
            raise BadParams(f"no edge between nodes {u} and {v}")
        length = self._lengths[idx]
        if not (_is_number_type(type(offset))  # NaN fails the range test below
                and -self.tol.abs_eps <= offset <= length + self.tol.slack(length)):
            raise ParameterOutOfRange(
                f"offset {offset!r} outside [0, {length!r}] on edge ({u}, {v})"
            )
        offset = float(offset)  # after the test, which an int beyond every float fails
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
        e = self._edge(idx)
        return self._edge_u[e], self._edge_v[e]

    def edge_length(self, idx: int) -> float:
        return self._lengths[self._edge(idx)]

    def degree(self, node: int) -> int:
        u = self._node(node)
        return self._adj_start.item(u + 1) - self._adj_start.item(u)

    def neighbors(self, node: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge index) pairs of a node, in edge order."""
        u, start = self._node(node), self._adj_start
        half = self._adj_half[start[u] : start[u + 1]]
        return tuple(zip(self._ends[half ^ 1].tolist(), (half >> 1).tolist()))

    def _node(self, node) -> int:
        """``node`` as a plain ``int``; BadParams unless it names a node."""
        u = _id_below(node, self.n_nodes)
        if u is None:
            raise BadParams(f"node {node!r} does not exist (tree has {self.n_nodes} nodes)")
        return u

    def _edge(self, idx) -> int:
        """``idx`` as a plain ``int``; BadParams unless it names an edge."""
        e = _id_below(idx, self.n_nodes - 1)
        if e is None:
            raise BadParams(f"edge {idx!r} does not exist (tree has {self.n_nodes - 1} edges)")
        return e

    def _edge_of(self, u: int, v: int) -> int | None:
        """Index of the edge joining nodes u and v; None when they are not
        adjacent."""
        if self._parent[v] == u:
            return self._parent_edge[v]
        if self._parent[u] == v:
            return self._parent_edge[u]
        return None

    def lca(self, u: int, v: int) -> int:
        return self._lca(self._node(u), self._node(v))

    def node_distance(self, u: int, v: int) -> float:
        return self._node_distance(self._node(u), self._node(v))

    def _lca(self, u: int, v: int) -> int:
        """``lca`` of two node ids taken from the tables, unchecked."""
        enter, leave = self._enter, self._leave
        t = enter[v]
        if enter[u] <= t < leave[u]:
            return u
        for row in reversed(self._up):
            w = row[u]
            if not enter[w] <= t < leave[w]:
                u = w
        return self._parent[u]

    def _node_distance(self, u: int, v: int) -> float:
        """``node_distance`` of two node ids taken from the tables, unchecked."""
        w = self._lca(u, v)
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

        This is the kernel for a p outside a set, and for one row of a set
        of thousands of points; between the points of a smaller set,
        ``PointArray._span_rows`` costs O(k) per row.  A span row is no
        substitute here: against the 600-16000 interval ends of a ball on an
        8000-node tree, index build included, it measured 4-20 times slower
        than this row, and a span row of one of those ends 20 times slower.
        Nor do the two share one anchor combine: a 24-point span row through
        this loop over anchors measured 5-7 % slower, and this row through
        the span rows' stacked 2 x 2 layout 1.3-8 times slower.
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

        The lca root distances by the span rule (see ``PointArray``): the
        running minima of ``_parent_rd`` outward from s's position."""
        tin, rd, parent_rd = self._tin, self._root_dist_arr, self._parent_rd
        t = tin[s]
        lca_rd = np.empty(self.n_nodes)
        np.fmin.accumulate(parent_rd[t + 1 :], out=lca_rd[t + 1 :])
        # [:t][::-1], not [t - 1::-1], which at t == 0 is all of lca_rd
        np.fmin.accumulate(parent_rd[1 : t + 1][::-1], out=lca_rd[:t][::-1])
        lca_rd[t] = rd[s]
        return rd[s] + rd - 2.0 * lca_rd.take(tin)  # take, as for the lifting rows

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
            return self._node_distance(x.node, y.node)
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset)
        if x.edge is not None and y.edge is not None and y.edge < x.edge:
            x, y = y, x  # the lower edge's offset is summed first: d(x, y) == d(y, x)
        return min(cx + self._node_distance(ax, ay) + cy
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
        w = self._lca(u, v)
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
        A t that is no real number, bools included, is out of range.
        """
        if not (_is_number_type(type(t)) and abs(t) <= sys.float_info.max  # finite, as a float
                and -(slack := self.tol.slack(max(total, abs(t)))) <= t <= total + slack):
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
        # before is None only on the first leg, where start is 0.0 < t
        return self._on_leg(t, start, end, before, y if stop is None else stop, e, cs, ct)

    def _on_leg(self, t: float, start: float, end: float, before: int | None,
                stop: int | TreePoint, e: int, cs: float, ct: float) -> TreePoint:
        """The stop rules of a walk that ends on the leg of edge e from tail
        coordinate cs to ct, whose sums run from ``start`` to ``end``: t at
        the start gives the node ``before``, t at the end gives ``stop`` (a
        node, or the point the leg ends at), and any other t the point
        ``t - start`` along the leg from cs.  ``_point_along`` and
        ``_toward_root`` both place their points here."""
        if t == start:
            return TreePoint(self, before, None, 0.0)
        if t == end:
            return stop if isinstance(stop, TreePoint) else TreePoint(self, stop, None, 0.0)
        delta = t - start
        return self._edge_point_at(e, cs + delta if ct > cs else cs - delta)

    def _toward_root(self, points: Sequence[TreePoint], depths: Sequence[float],
                     ts: Sequence[float]) -> list[TreePoint]:
        """Per point p, the point ``_point_along(p, node 0, depth, t)``
        gives, bit for bit, without its walk: p at t = 0, node 0 at t =
        depth, and any other point from one climb for all of them.

        Each row of the climb holds a point's legs toward node 0 in path
        order: the first, up from the lower end of p's edge (from p inside
        it), then the edge above each ancestor.  The ancestors come by
        doubling over the ``_up`` rows (Bender & Farach-Colton, "The level
        ancestor problem simplified", TCS 2004), only while some row's sums
        have not passed its t; node 0's own leg is infinite, so a row that
        reaches node 0 passes t there.  One sequential
        ``np.add.accumulate`` per row sums the legs in the walk's order, so
        the sums are the walk's, and the row's leg is the walk's last: the
        first whose sum passes t, or the leg into node 0 when the sums fall
        short of t.  ``_on_leg`` then places the point on it."""
        tail, length, parent, up_edge = self._edge_u, self._lengths, self._parent, self._parent_edge
        root, out, climbs = TreePoint(self, 0, None, 0.0), [], []
        for p, depth, t in zip(points, depths, ts):
            if 0.0 < t < depth:
                if p.node is None:  # its first leg runs from p to its edge's upper end
                    e, cs = p.edge, p.offset
                    u, v = tail[e], self._edge_v[e]
                    low = v if parent[v] == u else u
                else:  # its first leg is its parent edge
                    low = p.node
                    e = up_edge[low]
                    cs = 0.0 if tail[e] == low else length[e]
                # |coordinate - the upper end's|, as _point_along sums a leg
                first = abs(cs - (length[e] if tail[e] == low else 0.0))
                climbs.append((len(out), t, cs, low, first))
            out.append(p if t <= 0.0 else root)
        if not climbs:
            return out
        rows, ts, starts_cs, lows, firsts = zip(*climbs)
        t = np.array(ts)
        anc, lengths = np.array(lows)[:, None], np.array(firsts)[:, None]
        sums = lengths  # sums[:, q] ends the leg up from anc[:, q]
        up_edges = np.asarray(up_edge)
        for row in self._up:  # row j: each node's 2**j-th ancestor, node 0 its own
            if not (sums[:, -1] <= t).any():
                break
            more = np.asarray(row).take(anc)
            anc = np.concatenate((anc, more), axis=1)
            lengths = np.concatenate(
                (lengths, np.where(more > 0, self._edge_len.take(up_edges.take(more)), np.inf)), axis=1
            )
            sums = np.add.accumulate(lengths, axis=1)
        leg = (sums > t[:, None]).argmax(axis=1)
        r = np.arange(len(leg))
        leg -= anc[r, leg] == 0  # past node 0: its leg in
        legs = zip(rows, ts, starts_cs, leg.tolist(), anc[r, leg].tolist(),
                   sums[r, leg - 1].tolist(), sums[r, leg].tolist())
        for k, tk, first_cs, j, a, start, end in legs:
            e = up_edge[a]
            c = 0.0 if tail[e] == a else length[e]
            # the first leg starts at the point itself, 0.0 along the walk
            cs, start = (c, start) if j else (first_cs, 0.0)
            out[k] = self._on_leg(tk, start, end, a, parent[a], e, cs, length[e] - c)
        return out

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


def _id_below(value, bound: int) -> int | None:
    """``value`` as a plain ``int`` in ``0..bound-1``; None for anything
    else, bools included."""
    try:
        k = -1 if isinstance(value, bool) else index(value)
    except TypeError:
        return None
    return k if 0 <= k < bound else None


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as a plain ``int`` of at least ``least``; BadParams for
    anything else, bools and integral floats included."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    count = index(value) if integral else least - 1
    if count < least:
        raise BadParams(f"{what} must be an integer >= {least}, got {value!r}")
    return count


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
