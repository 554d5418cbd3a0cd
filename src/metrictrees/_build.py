"""The build of a ``MetricTree``: edge columns in, rooted tables out.

``MetricTree.__init__`` takes its edges as ``_Columns`` (the endpoints
interleaved, and the lengths), typing a list of triples into them with
``_typed_columns``.  ``_tour`` roots the tree at node 0 by an Euler tour
ranked by pointer jumping and rejects an edge list that is not a tree;
``_root_distances`` sums the root distances, parent first, folding in
Python over the nodes with a child only; ``_id_type`` picks the integer
type of the id tables the tree keeps (int32 unless the tree is too large
for it), and ``_table`` makes the read-only memoryviews the scalar queries
read.  The tour works in intp arrays, which it drops as soon as they are
spent, and returns intp tables; the tree casts the ones it keeps once, at
the end of its build.  When the linear check fails,
``_raise_first_edge_fault`` scans the edges in input order and raises the
error of the first at fault.

This module imports nothing from ``core``; ``_is_number_type``, the rule
for what may be an edge value, lives here for both.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, NoReturn

import numpy as np

from .errors import (
    BadParams,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    MetricTreeError,
    NonpositiveEdgeLength,
)


def _is_number_type(kind: type) -> bool:
    """Whether values of ``kind`` may be edge values: real numbers, numpy's
    included, but not bools, which would read as 0 and 1."""
    return issubclass(kind, numbers.Real) and kind is not bool


def _tour(ends: np.ndarray, order: np.ndarray, start: np.ndarray,
          deg: np.ndarray) -> tuple | None:
    """The rooted structure, root = node 0, from an Euler tour over the rows,
    or None when the edges are not a tree.

    Per node its parent (-1 at the root), parent edge, preorder position and
    subtree end; the preorder; and the largest hop count.  The tour leaves
    each half-edge's head by the half-edge after its twin in that node's
    row, cut before it leaves node 0 again; pointer jumping (Wyllie's list
    ranking) counts the steps to the cut.  With n - 1 edges, a tour over
    every half-edge that touches every node proves a tree.  Of an edge's two
    half-edges, the first on the tour leads away from the root, and half
    the steps between them are the nodes below it.

    Every array is intp, the index arrays that ``take`` reads or a scatter
    writes through (successors, tour steps, half-edges, children,
    positions) and the data arrays alike (steps to the cut, ranks, sizes,
    running sums), since a gather or an add that mixes int32 with intp
    costs numpy a cast, about a microsecond per call on a small tree.  The
    bytes are kept down by lifetime instead: no array over the half-edges
    is built but the successors, the steps to the cut and one spare; the
    ranks, then the sizes below each half-edge, then the tour's steps reuse
    the steps' array, and the per-edge tour steps ``descend`` and
    ``ascend`` the successors'; the row positions are never built, as the
    running sums of a row are gathered through ``order`` and scattered
    back; each array is dropped once spent, and the outputs are allocated
    last, one by one.  At 8000 nodes the tour holds about 80 bytes per node
    above its inputs, outputs included.
    """
    n, two_m = len(deg), len(order)
    if not two_m:  # one node, the root
        root = np.zeros(1, dtype=np.intp)
        return root - 1, root - 1, root, root + 1, root, 0
    if np.count_nonzero(deg) < n:
        return None
    m, row_last = two_m // 2, start[1:] - 1
    # succ[order[p] ^ 1] = order[p + 1], each row wrapping round
    succ, work = np.empty(two_m, dtype=np.intp), order ^ 1
    succ[work[:-1]] = order[1:]
    last = work[row_last]
    succ[last] = order[start[:-1]]
    last = last[0]  # the tour's last half-edge, into node 0: its own successor
    succ[last] = last
    dist = np.empty_like(succ)
    dist.fill(1)  # steps to the cut
    dist[last] = 0
    # the method form with mode="clip" skips np.take's index check and
    # its buffered copy of the output; the indices are in range
    for _ in range((two_m - 2).bit_length() - 1):
        dist.take(succ, None, work, "clip")
        dist += work
        succ.take(succ, None, work, "clip")
        succ, work = work, succ
    # the last jump, whose pointers would never be read
    dist.take(succ, None, work, "clip")
    dist += work
    if dist[order[0]] != two_m - 1:
        return None
    rank = np.subtract(two_m - 1, dist, out=dist)
    r0, r1 = rank[0::2], rank[1::2]
    down = np.arange(0, two_m, 2)
    down += r1 < r0  # per edge, its half-edge away from the root
    descend, ascend = np.minimum(r0, r1, out=succ[:m]), np.maximum(r0, r1, out=succ[m:])
    size = ascend - descend
    size += 1
    size >>= 1
    # a child's preorder position is its parent's, plus one, plus the sizes
    # of its siblings on higher edges, which a depth-first walk takes first
    below = rank  # per half-edge the size below it, 0 toward the root
    below.fill(0)
    below[down] = size
    later = below.take(order, None, work, "clip")  # summed along the rows
    np.add.accumulate(later, out=later)
    below[order] = later
    skip = later.take(row_last)
    del later, work
    tail = ends.take(down)
    skip = skip.take(tail)
    skip -= below.take(down)
    skip += 1
    steps = below  # every rank is a descend or an ascend
    steps[descend] = skip
    np.negative(skip, out=skip)
    steps[ascend] = skip
    del skip
    np.add.accumulate(steps, out=steps)
    pos = steps.take(descend)  # per edge, its child's preorder position
    steps[descend] = 1
    steps[ascend] = -1
    np.add.accumulate(steps, out=steps)  # hop counts, at descend
    height = int(steps[steps.argmax()])
    del steps, below, rank, dist, descend, ascend, succ, row_last
    down ^= 1
    child = ends.take(down)
    del down
    parent = np.empty(n, dtype=np.intp)
    parent[0] = -1
    parent[child] = tail
    del tail
    parent_edge = np.empty_like(parent)
    parent_edge[0] = -1
    parent_edge[child] = np.arange(m)
    leave = np.empty_like(parent)
    leave[0] = n
    leave[child] = size
    del size
    tin = np.empty_like(parent)
    tin[0] = 0
    tin[child] = pos
    leave += tin
    preorder = np.empty_like(parent)
    preorder[0] = 0
    preorder[pos] = child
    return parent, parent_edge, tin, leave, preorder, height


def _root_distances(parent: np.ndarray, parent_edge: np.ndarray, tin: np.ndarray,
                    preorder: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node its root distance, and per preorder position its parent's
    (+inf at the root).  Each is its parent's plus the edge's length, summed
    parent first.

    Only inner positions, those with a child, are a parent, and position p
    has one exactly when p + 1's parent is p.  So the sequential fold runs
    over the inner positions in preorder, through a memoryview of the
    result, whose items are the plain ``float``s it adds; then one gather
    and one add give every position ``rd[parent] + length`` from the same
    operands, leaves and inner positions alike, bit for bit."""
    n = len(preorder)
    below_root = preorder[1:]
    above = tin.take(parent.take(below_root))  # at p - 1, position p's parent
    length = lens.take(parent_edge.take(below_root))
    inner = (above[1:] == np.arange(1, n - 1)).nonzero()[0]  # at p - 1, inner p > 0
    by_position = np.empty(n)
    by_position[0] = 0.0
    rd = memoryview(by_position)
    after_root = rd[1:]
    for at, q, x in zip(memoryview(inner), memoryview(above.take(inner)),
                        memoryview(length.take(inner))):
        after_root[at] = rd[q] + x
    parent_rd = np.empty(n)
    parent_rd[0] = math.inf
    by_position.take(above, None, parent_rd[1:], "clip")
    del above, inner  # spent, as is length below: the last gather holds less
    with np.errstate(over="ignore"):  # a sum past the largest float is inf, as in the fold
        np.add(parent_rd[1:], length, out=by_position[1:])
    del length
    return by_position.take(tin), parent_rd


def _id_type(n_nodes: int) -> type:
    """The integer type of the id tables a tree on ``n_nodes`` nodes keeps:
    int32 while its largest id, the half-edge row end ``2 * n_nodes - 2``,
    fits one, else intp."""
    return np.int32 if 2 * n_nodes - 2 < 2**31 else np.intp


def _table(column: np.ndarray) -> memoryview:
    """A read-only view of a 1-D array for the scalar queries: made in O(1),
    and its items index as plain ``int``s or ``float``s, bit for bit."""
    return memoryview(column).toreadonly()


def _triples(ends: np.ndarray, lens: np.ndarray) -> list[tuple[int, int, float]]:
    """The edges of the columns as (u, v, length) triples."""
    return list(zip(ends[0::2].tolist(), ends[1::2].tolist(), lens.tolist()))


class _Columns(NamedTuple):
    """An edge list as arrays, which ``MetricTree`` builds from without
    checking their types again: edge e runs from ``ends[2e]`` to
    ``ends[2e + 1]`` (``intp``) and has length ``lengths[e]`` (``float64``),
    both aligned, since the tree's memoryviews index them; the tree makes
    both read-only."""

    ends: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, us: list[int], vs: list[int], lengths: list[float]) -> "_Columns":
        """Columns from lists of endpoints and lengths; OverflowError for an
        endpoint beyond any index."""
        ends = np.fromiter(chain.from_iterable(zip(us, vs)), np.intp, 2 * len(us))
        return cls(ends, np.array(lengths, dtype=np.float64))


def _typed_columns(n_nodes: int, edges: Iterable) -> _Columns:
    """The columns of (u, v, length) triples of numbers, ints not changed by
    ``int``; otherwise the error of the first edge at fault."""
    edges = list(edges)
    try:
        triples = [(u, v, length) for u, v, length in edges]  # unpacked, as the scan reads one
        raw = [list(map(itemgetter(k), triples)) for k in range(3)]
        us, vs, lengths = (list(map(conv, col)) for conv, col in zip((int, int, float), raw))
        typed = all(map(_is_number_type, set(map(type, chain(*raw)))))
        if typed and [us, vs] == raw[:2]:
            return _Columns.of(us, vs, lengths)
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    _raise_first_edge_fault(n_nodes, edges)  # an earlier edge's fault wins


def _raise_first_edge_fault(n_nodes: int, edges: list) -> NoReturn:
    """Raise the error for the first edge, in input order, that keeps
    ``edges`` from being a tree on ``n_nodes`` nodes.

    ``MetricTree`` calls this only after its linear check has failed, so
    the sequential scan below only names the error.  An error that an edge
    causes carries that edge's index in ``edges`` as its ``edge``;
    ``Disconnected``, the error of the edges together, carries none.  The
    union-find holds only the nodes the edges name, so a huge ``n_nodes``
    costs nothing.
    """
    seen: set[tuple[int, int]] = set()
    uf: dict[int, int] = {}  # a node absent from uf is its own root

    def find(x: int) -> int:
        while x in uf:
            uf[x] = uf.get(uf[x], uf[x])
            x = uf[x]
        return x

    for at, raw in enumerate(edges):
        try:
            try:
                a, b, c = raw
                u, v, length = int(a), int(b), float(c)
                for x in (a, b, c):
                    if not _is_number_type(type(x)):
                        raise TypeError(f"{x!r} ({type(x).__name__}) is not a number")
                if (u, v) != (a, b):
                    raise ValueError(f"endpoint {a if u != a else b!r} is not an integer")
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
        except MetricTreeError as exc:
            exc.edge = at
            raise
    # a forest with n - 1 edges spans all n nodes, so the count is off
    raise Disconnected(f"{n_nodes} nodes need {n_nodes - 1} edges to be connected, got {len(edges)}")
