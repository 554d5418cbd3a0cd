"""Distance-matrix ingestion, tree-metric recognition and reconstruction,
the line-oriented tree document format, and the example-tree gallery.

Matrix formats
--------------
CSV: first row is ``,label1,label2,...``; each following row is
``label,value,value,...``.  Whitespace: row ``i`` is the label followed by
the ``i`` strict-lower-triangle values (the first row is a bare label).

Tree documents
--------------
Line-oriented UTF-8 text.  ``#`` starts a comment.  Lines:

    node <id>                       (optional; required only for a
                                     single-node tree)
    edge <u> <v> <length>
    point <name> node <id>
    point <name> edge <u> <v> <offset>

``parse_tree`` reads a document, checks its node ids and builds the tree,
each once, by one of two paths.  When the document lists its edges first,
as every document this package writes does, one ``np.loadtxt`` pass
converts the block of lines up to the last one that starts with ``edge``:
it reads an edge line in it, indented or not, to the values the line
reader would, and skips its blank and comment lines, as the line reader
does; the line reader reads the lines after the block.  Any other document
(a node or point line among the edges, a line loadtxt cannot convert, an
edge line after the block) goes to the line reader whole, which names
every error at its line and column.  The n distinct node ids must be
exactly 0..n-1; an id error names the first id at fault at its line and
column.  An edge that repeats another, loops, closes a cycle or has no
positive length names the line and column of its first token, found from
the edge index its error carries; too few edges name no line.

Recognition
-----------
``check_four_point`` and ``tree_from_distances`` share one recognizer that
certifies or scans.  It reconstructs a tree first and re-measures every label
pair on it; ``dev`` is the largest deviation of those distances from the
matrix d.  Let ``scale`` be twice the largest entry and ``eps`` the float
epsilon.  Each re-measured distance lies within ``(n_nodes + 1)*eps*scale``
of the exact distance T of the reconstructed tree, the rounding of its root
distances and their sums, and each entry of d within ``dev`` of it.

Triangles: T is a metric, so ``d(i,k) - d(i,j) - d(j,k)`` is at most
``3*(dev + (n_nodes + 1)*eps*scale)``, and the scan's float expression
``(d[i,j] + d[j,k]) + slack`` rounds by at most ``2*eps*(scale + slack)``.
So when ``3*dev + ((3*n_nodes + 5)*scale + 2*slack)*eps < slack`` (``slack``
the triangle slack, taken at the largest entry) no triple fails and the scan
is skipped.  Otherwise ``DistanceMatrix.metric_violation`` scans, also when
the reconstruction raises, before any result is returned, so NotAMetric
and its first triple keep their precedence.

Quadruples: when ``4*dev + (4*n_nodes + 4)*eps*scale < slack`` (``slack``
the four-point slack, taken at ``scale``), every quadruple passes: an exact
tree metric's two largest pairing sums are equal, the matrix's lie within
``4*dev`` of them, and the ``eps`` term bounds the rounding of the tree
distances and of the sums.  Otherwise a scan over the quadruples, one (i, j)
pair at a time, finds the first violation in lexicographic order.  The
four-point slack is taken at twice the triangle slack's scale, so neither
certificate implies the other.  Either way the verdicts are the ones the
brute-force tests give.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from ._build import _Columns, _is_number_type
from .core import MetricTree, PointArray, Tolerance, TreePoint, _count
from .errors import (
    BadParams,
    CycleDetected,
    DuplicateEdge,
    InvalidDistanceMatrix,
    MetricTreeError,
    NonpositiveEdgeLength,
    NotAMetric,
    NotTreeMetric,
    ParameterOutOfRange,
    TreeParseError,
    UnknownGallery,
)

__all__ = [
    "DistanceMatrix",
    "TreeDocument",
    "check_four_point",
    "tree_from_distances",
    "parse_tree",
    "serialize_tree",
    "gallery",
    "parse_matrix",
    "format_matrix_csv",
    "matrix_from_points",
]


# Entries above this are rejected so that sums of distances stay finite: the
# symmetrizing sum, every pairing sum and the scale (twice the largest entry)
# stay within half the largest float, which leaves room for a slack.  An
# overflowed sum is inf, and inf - inf is NaN, which compares as no violation.
_LARGEST_ENTRY = float(np.finfo(float).max) / 4.0
_EPS = float(np.finfo(float).eps)
_SCAN_FLOATS = 8192  # the most floats in one block of the triangle scan (2^13)


@dataclass(frozen=True)
class DistanceMatrix:
    """Labeled symmetric nonnegative matrix with zero diagonal."""

    labels: tuple[str, ...]
    values: np.ndarray
    tol: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidDistanceMatrix("labels must be unique")
        if values.shape != (n, n):
            raise InvalidDistanceMatrix(
                f"matrix shape {values.shape} does not match {n} labels"
            )
        low, high = (values.min(), values.max()) if n else (0.0, 0.0)
        if not (math.isfinite(low) and math.isfinite(high)):  # NaN included
            raise InvalidDistanceMatrix("matrix entries must be finite")
        if high > _LARGEST_ENTRY:
            i, j = map(int, np.argwhere(values > _LARGEST_ENTRY)[0])
            raise InvalidDistanceMatrix(
                f"entry at ({i}, {j}) exceeds {_LARGEST_ENTRY!r}, the largest "
                "whose sums of distances stay finite"
            )
        if low < 0:
            i, j = map(int, np.argwhere(values < 0)[0])
            raise InvalidDistanceMatrix(f"negative entry at ({i}, {j})")
        slack = self.tol.slack(float(high))
        gap = values - values.T
        if n and np.abs(gap, out=gap).max() > slack:
            i, j = map(int, np.argwhere(gap > slack)[0])
            raise InvalidDistanceMatrix(f"asymmetric at ({i}, {j})")
        diagonal = values.diagonal()
        if n and diagonal.max() > slack:  # the entries are nonnegative here
            i = int(diagonal.argmax())
            raise InvalidDistanceMatrix(f"nonzero diagonal at ({i}, {i})")
        values = values + values.T
        values *= 0.5
        values.flat[:: n + 1] = 0.0  # the diagonal
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def metric_violation(self) -> tuple[int, int, int] | None:
        """First triple (i, j, k) in lexicographic order with
        ``d(i,k) > d(i,j) + d(j,k)`` beyond the slack, or None.

        One numpy comparison per block of rows i over their (i, j, k) slab,
        ``_SCAN_FLOATS // k^2`` rows at a time (at least one), in the float
        expression ``d[i,k] > (d[i,j] + d[j,k]) + slack``; the slab is in
        lexicographic order, so its first hit is the first triple.
        """
        d = self.values
        n = len(d)
        slack = self.tol.slack(float(d.max(initial=0.0)))
        step = max(1, _SCAN_FLOATS // max(1, n * n))
        for i in range(0, n, step):
            rows = d[i : i + step]
            bound = rows[:, :, None] + d  # [i, j, k] = d(i,j) + d(j,k)
            bound += slack
            bad = rows[:, None, :] > bound
            hit = int(bad.argmax())
            if bad.flat[hit]:
                a, jk = divmod(hit, n * n)
                return (i + a, *divmod(jk, n))
        return None


def _four_point_violation(d: np.ndarray, slack: float) -> tuple[int, int, int, int] | None:
    """First quadruple i < j < k < l in lexicographic order whose two largest
    pairing sums differ by more than ``slack``, or None.

    One (i, j) pair at a time over the slab of its (k, l), so no step holds
    more than O(k^2) floats.  The two largest sums come from max and min
    alone, which pick what ``sorted`` picks bit for bit; ``sum - top - low``
    would round differently.
    """
    n = len(d)
    for i in range(n):
        for j in range(i + 1, n - 2):
            rest = slice(j + 1, None)
            s1 = d[i, j] + d[rest, rest]  # [k, l] = d(i,j) + d(k,l)
            s2 = d[i, rest, None] + d[j, None, rest]  # d(i,k) + d(j,l)
            s3 = d[j, rest, None] + d[i, None, rest]  # d(j,k) + d(i,l)
            high = np.maximum(s1, s2)
            top = np.maximum(high, s3)
            mid = np.maximum(np.minimum(s1, s2), np.minimum(high, s3))
            bad = np.triu(top - mid > slack, 1)
            hit = int(np.argmax(bad))
            if bad.flat[hit]:
                k, l = divmod(hit, n - j - 1)
                return (i, j, j + 1 + k, j + 1 + l)
    return None


def _recognize(
    matrix: DistanceMatrix,
) -> tuple[
    tuple[int, int, int, int] | None,
    tuple[MetricTree, dict[str, TreePoint], np.ndarray, float] | MetricTreeError,
]:
    """Certify or scan: (first violating quadruple or None, reconstruction).

    The reconstruction is the tree, the label points, the tree distances
    between the labels and their largest deviation from the matrix, or the
    error that building it raised.  Raises NotAMetric when the triangle
    inequality fails; the triangles are scanned unless the reconstruction
    certifies them, and before anything is returned.
    """
    d = matrix.values
    top = float(d.max(initial=0.0))
    scale = 2.0 * top
    slack = matrix.tol.slack(scale)
    try:
        tree, points = _reconstruct(matrix)
    except MetricTreeError as exc:
        _raise_triangle(matrix)
        return _four_point_violation(d, slack), exc
    k = len(points)  # every label sits at a node
    labels_at = PointArray(tree, [p.node for p in points.values()], np.full(k, -1), np.zeros(k))
    measured = tree._distance_matrix(labels_at)
    dev = float(np.abs(measured - d).max(initial=0.0))
    # both certificates are strict, so that a zero slack never certifies
    n = tree.n_nodes
    triangle_slack = matrix.tol.slack(top)
    if not 3.0 * dev + ((3 * n + 5) * scale + 2.0 * triangle_slack) * _EPS < triangle_slack:
        _raise_triangle(matrix)
    certified = 4.0 * dev + (4 * n + 4) * _EPS * scale < slack
    quad = None if certified else _four_point_violation(d, slack)
    return quad, (tree, points, measured, dev)


def _raise_triangle(matrix: DistanceMatrix) -> None:
    """NotAMetric naming the first triangle that fails, if one does."""
    triple = matrix.metric_violation()
    if triple is not None:
        raise NotAMetric(f"triangle inequality fails on {triple}", triple=triple)


def check_four_point(
    matrix: DistanceMatrix,
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Test the four-point condition; returns (ok, violating quadruple).

    For every quadruple, the two largest of the three pairing sums
    ``d(i,j)+d(k,l)``, ``d(i,k)+d(j,l)``, ``d(i,l)+d(j,k)`` must be equal
    (up to tolerance); equivalently each sum is bounded by the maximum of
    the other two.  Raises NotAMetric when the matrix is not even a metric.

    The tree reconstructed from the matrix comes first.  When it
    re-measures every entry within ``dev``, where
    ``4*dev + (4*n_nodes + 4)*eps*scale < slack``, the matrix is certified
    without a scan; otherwise the quadruples are scanned for the first
    violation in lexicographic order.  The triangles are scanned first
    unless the same tree certifies them (see the module docstring).  The
    verdict, triple and quadruple are the brute-force ones.
    """
    quad, _ = _recognize(matrix)
    return quad is None, quad


# --------------------------------------------------------------------- #
# Reconstruction from additive distances                                  #
# --------------------------------------------------------------------- #


class _Builder:
    """Tree under construction, rooted at node 0: per node c, ``parent[c]``
    and the length of the edge (parent[c], c).

    Reconstruction always measures from node 0, so a path from it is a walk
    up the parent pointers.  Every edge is made together with its higher
    endpoint, the newest node, so listing the edges by (lower, higher)
    endpoint lists each node's edges in the order they were made.
    """

    def __init__(self) -> None:
        self.parent = [-1]
        self.length = [0.0]

    def add_node(self, parent: int, length: float) -> int:
        """A new node hanging from ``parent`` by an edge of ``length``."""
        self.parent.append(parent)
        self.length.append(length)
        return len(self.parent) - 1

    def locate(self, v: int, t: float, snap: float) -> int:
        """Node at distance t from node 0 on the path to v, splitting an
        edge when t falls strictly inside one.

        The path is walked from node 0, summing edge lengths, which only
        grow.  The first node within ``snap`` of t wins; failing that, the
        first edge whose ends lie either side of t is split.  One pass finds
        both: no node past such an edge lies nearer t than its far end,
        which is checked before the split."""
        parent, length = self.parent, self.length
        path = []
        b = v
        while b:
            path.append(b)
            b = parent[b]
        above, at = 0, 0.0
        if abs(at - t) <= snap:
            return 0
        for b in reversed(path):
            below = at + length[b]
            if abs(below - t) <= snap:
                return b
            if at < t < below:
                m = self.add_node(above, t - at)
                parent[b] = m
                length[b] = length[b] - (t - at)
                return m
            above, at = b, below
        # t beyond the path end (can only be float slop): clamp to v
        return v

    def columns(self) -> _Columns:
        """The edges as columns, by (lower, higher) endpoint."""
        child = np.arange(1, len(self.parent))
        parent = np.array(self.parent[1:], dtype=np.intp)
        low, high = np.minimum(parent, child), np.maximum(parent, child)
        order = np.lexsort((high, low))
        ends = np.array((low[order], high[order])).T.ravel()
        return _Columns(ends, np.array(self.length[1:])[order])


def tree_from_distances(
    matrix: DistanceMatrix,
) -> tuple[MetricTree, dict[str, TreePoint]]:
    """Reconstruct the unique tree realizing an additive distance matrix.

    Labels are attached one at a time: the attachment point of a new label x
    relative to a reference label i sits at distance
    ``max_j (d(i,x) + d(i,j) - d(j,x)) / 2`` from i along the path to the
    maximizing j, which for additive distances is exactly where the geodesic
    from x meets the span of the already-placed labels.  Split points landing
    inside an edge create an interior node, so labeled points may end up at
    leaves or interior nodes.

    The tree is built once: the four-point condition is certified from its
    re-measured distances or else scanned (see ``check_four_point``), and
    the same distances verify every entry within 16 times the slack.

    Raises NotAMetric / NotTreeMetric when the input cannot be realized.
    """
    return _realize(matrix)[:2]


def _realize(matrix: DistanceMatrix) -> tuple[MetricTree, dict[str, TreePoint], float]:
    """``tree_from_distances`` plus the largest deviation of the tree
    distances between the labels from the matrix, as re-measured to verify
    the tree."""
    quad, built = _recognize(matrix)
    if quad is not None:
        raise NotTreeMetric(f"four-point condition fails on {quad}", quadruple=quad)
    if isinstance(built, MetricTreeError):
        raise built
    tree, points, measured, dev = built
    d = matrix.values
    verify_slack = matrix.tol.slack(float(d.max(initial=1.0))) * 16.0
    if dev > verify_slack:  # dev is the largest gap; both matrices are symmetric
        a, b = map(int, np.argwhere(np.triu(np.abs(measured - d) > verify_slack, 1))[0])
        raise NotTreeMetric(
            f"matrix is not additive: labels ({a}, {b}) re-measure to "
            f"{float(measured[a, b])!r}, expected {d[a, b]!r}"
        )
    return tree, points, dev


def _reconstruct(matrix: DistanceMatrix) -> tuple[MetricTree, dict[str, TreePoint]]:
    """The tree ``tree_from_distances`` builds, unchecked, and the label points.

    Each label's duplicate (the first earlier label within the snap) and
    attachment (the first j maximizing ``t = 0.5*((d(0,x) + d(0,j)) -
    d(j,x))`` over the labels 0 < j < x) read only the matrix, so both come
    from whole-matrix passes; the walk then places the labels in order."""
    n = matrix.size
    tol = matrix.tol
    d = matrix.values
    if not n:
        return MetricTree(1, [], tol=tol), {}
    snap = tol.slack(float(d.max(initial=1.0))) * 4.0
    # the first label within the snap of x is x itself when none before it is
    dups = (d <= snap).argmax(axis=1).tolist()
    ref = d[0]  # the reference label 0 sits at node 0, the builder's root
    t = ref[:, None] + ref  # [x, j] = d(0,x) + d(0,j)
    t -= d
    t *= 0.5
    at = np.arange(n)
    within = at[:, None] > at  # j < x
    within[:, 0] = False
    t = np.where(within, t, -np.inf)
    best = t.argmax(axis=1)
    best_js, best_ts, ref = best.tolist(), t[at, best].tolist(), ref.tolist()

    builder = _Builder()
    position = [0] * n  # node id per label; label 0 sits at node 0
    for x in range(1, n):
        if dups[x] < x:
            position[x] = position[dups[x]]
            continue
        if x == 1:  # label 0 is the only one placed
            attach, rem = 0, ref[1]
        else:
            best_j = best_js[x]
            best_t = min(max(best_ts[x], 0.0), ref[best_j])
            attach = builder.locate(position[best_j], best_t, snap)
            rem = ref[x] - best_t
        position[x] = attach if rem <= snap else builder.add_node(attach, rem)

    tree = MetricTree(len(builder.parent), builder.columns(), tol=tol)
    return tree, {label: TreePoint(tree, k, None, 0.0) for label, k in zip(matrix.labels, position)}


# --------------------------------------------------------------------- #
# Tree document format                                                     #
# --------------------------------------------------------------------- #


@dataclass
class TreeDocument:
    """A metric tree plus named points, as read from / written to text."""

    tree: MetricTree
    points: dict[str, TreePoint]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeDocument):
            return NotImplemented
        if not self.tree.same_structure(other.tree):
            return False
        if self.points.keys() != other.points.keys():
            return False
        return all(
            self.points[k].record() == other.points[k].record() for k in self.points
        )

    __hash__ = None  # type: ignore[assignment]


_TOKEN = re.compile(r"\S+")  # the tokens of str.split(), with their positions


def _error_at(line: str, lineno: int, k: int, message: str) -> TreeParseError:
    """TreeParseError at the column of the k-th token of ``line``."""
    column = [m.start() + 1 for m in _TOKEN.finditer(line)][k]
    return TreeParseError(message, lineno, column)


def _raise_number_error(
    line: str, lineno: int, words: list[str], first: int, convs: tuple
) -> None:
    """Raise the TreeParseError for the first of ``words[first:]`` that its
    entry of ``convs`` (``int`` or ``float``) rejects; return if none does."""
    for k, conv in enumerate(convs, start=first):
        try:
            conv(words[k])
        except ValueError:
            what = "integer" if conv is int else "number"
            raise _error_at(line, lineno, k, f"expected {what}, got {words[k]!r}")


def _read_lines(
    lines: list[str], numbers: Sequence[int]
) -> tuple[tuple[list[int], list[int], list[float]], list[int], list[tuple[int, str, tuple]]]:
    """The edge columns, node ids and point lines in ``lines`` of a tree
    document, comments removed, numbered by ``numbers``.  Lines are read in
    order, each converted where it is read, so that an error names the first
    bad line."""
    us: list[int] = []
    vs: list[int] = []
    lengths: list[float] = []
    node_ids: list[int] = []
    point_lines: list[tuple[int, str, tuple]] = []
    for lineno, line in zip(numbers, lines):
        words = line.split()
        if not words:
            continue
        kind = words[0]
        if kind == "edge":
            if len(words) != 4:
                raise _error_at(line, lineno, 0, "edge line takes: edge <u> <v> <length>")
            try:
                u, v, length = int(words[1]), int(words[2]), float(words[3])
            except ValueError:
                _raise_number_error(line, lineno, words, 1, (int, int, float))
                raise
            us.append(u)
            vs.append(v)
            lengths.append(length)
        elif kind == "point":
            if len(words) < 3:
                raise _error_at(
                    line, lineno, 0,
                    "point line takes: point <name> node <id> | edge <u> <v> <offset>",
                )
            mode = words[2]
            if mode == "node" and len(words) == 4:
                convs: tuple = (int,)
            elif mode == "edge" and len(words) == 6:
                convs = (int, int, float)
            else:
                raise _error_at(line, lineno, 0, "malformed point line")
            try:
                where = tuple(conv(w) for conv, w in zip(convs, words[3:]))
            except ValueError:
                _raise_number_error(line, lineno, words, 3, convs)
                raise
            point_lines.append((lineno, words[1], where))
        elif kind == "node":
            if len(words) != 2:
                raise _error_at(line, lineno, 0, "node line takes one id")
            try:
                node_ids.append(int(words[1]))
            except ValueError:
                _raise_number_error(line, lineno, words, 1, (int,))
                raise
        else:
            raise _error_at(line, lineno, 0, f"unknown directive {kind!r}")
    return (us, vs, lengths), node_ids, point_lines


# the bulk pass needs loadtxt to reject a fraction in an integer column;
# numpy 1.23-1.26 reads "1.5" there as 1, with only a DeprecationWarning
if int(np.__version__.split(".", 1)[0]) < 2:
    raise ImportError(f"metrictrees needs numpy >= 2.0, found {np.__version__}")

# an edge line as the bulk pass reads it; the keyword field is one character
# wider than "edge", so that a longer word such as "edgex" does not equal it,
# and bytes, since the pass reads ASCII lines only
_EDGE_ROW = np.dtype([("kind", "S5"), ("ends", np.intp, (2,)), ("length", np.float64)])


def _edge_rows(lines: list[str], is_ascii: bool) -> np.ndarray | None:
    """loadtxt's rows of ``lines`` when it converts every data line to an
    edge row, else None."""
    # loadtxt warns on no lines, and numpy 2.4's integer parser reads some
    # non-ASCII letters as digits (U+01FE as 462), so it gets ASCII lines only
    if not lines or not (is_ascii or "".join(lines).isascii()):
        return None
    try:
        rows = np.loadtxt(lines, dtype=_EDGE_ROW, comments="#", ndmin=1)
    except ValueError:
        return None
    return rows if (rows["kind"] == b"edge").all() else None


def _read_bulk(text: str) -> tuple[_Columns, list[int], list[tuple[int, str, tuple]]] | None:
    """The edge columns, node ids and point lines of a document, by one
    ``np.loadtxt`` pass over the edge block and the line reader over the
    lines after it; None, for ``_read_document`` to read the whole
    document, when the pass cannot convert the block or an edge line
    escapes it.

    The block is the lines up to the last one that starts with ``edge``, as
    every document this package writes lists its edges first.  When
    loadtxt converts it to edge rows, each of its lines is an edge line,
    indented or not, or holds no data (blank or a comment).  Any other line
    in it, such as a node or point line among the edges, fails the pass; an
    indented edge line after the block escapes it.

    On ASCII lines numpy accepts a subset of what ``str.split``, ``int``
    and ``float`` accept (no ``_`` in numbers, no id beyond int64) and reads
    it to the same values, and skips the lines that ``str.split`` finds
    empty once comments are cut, so the edges it converts are the ones the
    line reader would read, and the first bad line after the block is the
    first of the document.  A NUL would end loadtxt's keyword field early
    (``edge\\0`` reads as ``edge``), so such a document is not read in bulk.
    """
    lines = text.splitlines()
    end = len(lines)  # one past the last line that starts with "edge"
    while end and not lines[end - 1].startswith("edge"):
        end -= 1
    if not end or "\0" in text:
        return None
    rows = _edge_rows(lines[:end], text.isascii())
    if rows is None:
        return None
    other = [line.split("#", 1)[0] for line in lines[end:]]
    del lines
    (us, _, _), node_ids, point_lines = _read_lines(other, range(end + 1, end + len(other) + 1))
    if us:  # an edge line that the pass did not read
        return None
    # copies, since a field of loadtxt's rows may sit unaligned, which the
    # tree's memoryviews cannot index
    return _Columns(rows["ends"].flatten(), rows["length"].copy()), node_ids, point_lines


def _read_document(text: str) -> tuple[_Columns, list[int], list[tuple[int, str, tuple]]]:
    """What ``_read_bulk`` reads, by the line reader alone, which names every
    error at its line and column.  An endpoint beyond any index leaves the
    columns as lists, which the id check rejects."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    (us, vs, lengths), node_ids, point_lines = _read_lines(lines, range(1, len(lines) + 1))
    del lines
    try:
        return _Columns.of(us, vs, lengths), node_ids, point_lines
    except OverflowError:
        return _Columns(us + vs, lengths), node_ids, point_lines


def _node_count(ends: np.ndarray | list[int], node_ids: list[int], text: str = "") -> int:
    """The number n of distinct ids that the endpoints ``ends`` and the node
    lines name; TreeParseError unless they are exactly 0..n-1, at the first
    id of the document ``text`` at fault (``_id_error``).  An array of exactly
    0..h, h below its length, passes by a few numpy calls; other ids go
    through a set of the ids named, so no id sizes anything."""
    if isinstance(ends, np.ndarray) and len(ends) and ends.min() == 0:
        high = int(ends.max())
        if high < len(ends) and np.bincount(ends).all() and all(0 <= k <= high for k in node_ids):
            return high + 1
    ids = set(node_ids)
    ids.update(ends)
    if not ids:
        raise TreeParseError("document defines no nodes", 1, 1)
    n_nodes = len(ids)
    low = min(ids)
    if low < 0:
        raise _id_error(text, lambda k: k == low, f"node id {low} is negative")
    if max(ids) >= n_nodes:  # then some id in 0..n_nodes is free
        missing = next(k for k in range(n_nodes + 1) if k not in ids)
        raise _id_error(
            text, lambda k: k >= n_nodes,
            f"node ids must be 0..n-1 with none skipped; node {missing} is missing",
        )
    return n_nodes


_ID_SLOTS = {"edge": (1, 2), "node": (1,)}  # the tokens of a line that are node ids


def _id_error(text: str, at_fault, message: str) -> TreeParseError:
    """TreeParseError at the first node id of the document ``text``, on an
    edge or node line, for which ``at_fault`` holds; else at line 1, column
    1.  The document has been read, so each of its ids converts."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split("#", 1)[0].split()
        for k in _ID_SLOTS.get(words[0], ()) if words else ():
            if at_fault(int(words[k])):
                return _error_at(line, lineno, k, message)
    return TreeParseError(message, 1, 1)


def _edge_error(text: str, exc: MetricTreeError) -> MetricTreeError:
    """``exc``, raised building the tree of the document ``text``, again
    with the line and column of the edge at fault in front of its message
    and as its ``line`` and ``column``, and ``exc.edge`` as its ``edge``.

    ``exc.edge`` is that edge's index in input order, and both readers take
    the edges in document order from the lines whose first token is
    ``edge``."""
    seen = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split("#", 1)[0].split()
        seen += bool(words) and words[0] == "edge"
        if seen > exc.edge:
            column = _TOKEN.search(line).start() + 1
            error = type(exc)(f"line {lineno}, column {column}: {exc}")
            error.line, error.column, error.edge = lineno, column, exc.edge
            return error
    return exc


def parse_tree(text: str, tol: Tolerance | None = None) -> TreeDocument:
    """Parse a tree document; raises TreeParseError with line/column.

    The document is read in bulk (``_read_bulk``) when its edge block
    converts, else by the line reader (``_read_document``), which names a
    malformed line at its line and column; its node ids are checked once
    to be exactly 0..n-1 for n distinct ids (``_node_count``), which names
    the first id at fault at its line and column; and the tree is built
    once, on n nodes, and raises what ``MetricTree`` raises.  An edge that
    repeats another, loops, closes a cycle or has no positive length raises
    its error again with its line and column in front and as its ``line``
    and ``column``, found from the edge index the error carries
    (``_edge_error``, on the error path only).  A point on a missing node
    or edge, or off its edge, raises TreeParseError at its line.
    """
    columns, node_ids, point_lines = _read_bulk(text) or _read_document(text)
    n_nodes = _node_count(columns.ends, node_ids, text)
    try:
        tree = MetricTree(n_nodes, columns, tol=tol)
    except (CycleDetected, DuplicateEdge, NonpositiveEdgeLength) as exc:
        raise _edge_error(text, exc) from None

    points: dict[str, TreePoint] = {}
    for lineno, name, where in point_lines:
        if name in points:
            raise TreeParseError(f"duplicate point name {name!r}", lineno)
        try:
            points[name] = tree.node_point(*where) if len(where) == 1 else tree.edge_point(*where)
        except (BadParams, ParameterOutOfRange) as exc:  # no such node or edge, or offset off it
            raise TreeParseError(str(exc), lineno) from exc
    return TreeDocument(tree, points)


def serialize_tree(doc: TreeDocument) -> str:
    """Render a TreeDocument; floats use shortest round-trip form.

    Raises BadParams for a point name that ``parse_tree`` could not read
    back: an empty one, or one containing whitespace or ``#``.
    """
    for name in doc.points:
        if name.split() != [name] or "#" in name:
            raise BadParams(
                f"point name {name!r} cannot be written to a tree document: "
                "names must be nonempty, without whitespace or '#'"
            )
    out = []
    edges = doc.tree.edges
    if not edges:
        for i in range(doc.tree.n_nodes):
            out.append(f"node {i}")
    for u, v, length in edges:
        out.append(f"edge {u} {v} {length!r}")
    for name, p in doc.points.items():
        rec = p.record()
        if rec["kind"] == "node":
            out.append(f"point {name} node {rec['node']}")
        else:
            out.append(f"point {name} edge {rec['u']} {rec['v']} {rec['offset']!r}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------- #
# Gallery                                                                  #
# --------------------------------------------------------------------- #


def gallery(name: str, tol: Tolerance | None = None, **params) -> TreeDocument:
    """Named example trees with labeled points.

    simple
        Two-unit trunk A--B with unit branches B--C and B--D; the smallest
        tree exhibiting a genuine branch point.
    star(n, spoke_len=1.0)
        Hub with n spokes; all tip-to-tip distances are 2*spoke_len.
    comb_compact(n)
        Spine [0, 1] with nodes at x = 1/k (k = 1..n) carrying teeth of
        length 1/k; teeth shrink toward the accumulation end.
    comb_noncompact(n)
        Same spine, every tooth of length 1; tip-to-tip distances never
        drop below 2 no matter how many teeth.
    """
    known = {"simple", "star", "comb_compact", "comb_noncompact"}
    if name not in known:
        raise UnknownGallery(f"unknown gallery tree {name!r}; choose from {sorted(known)}")

    if name == "simple":
        if params:
            raise BadParams(f"gallery 'simple' takes no parameters, got {sorted(params)}")
        tree = MetricTree(4, [(0, 1, 2.0), (1, 2, 1.0), (1, 3, 1.0)], tol=tol)
        points = {nm: tree.node_point(i) for i, nm in enumerate("ABCD")}
        return TreeDocument(tree, points)

    if name == "star":
        n = _count(params.pop("n", None), "parameter 'n'")
        spoke_len = params.pop("spoke_len", 1.0)
        if params:
            raise BadParams(f"unexpected parameters {sorted(params)}")
        if not (_is_number_type(type(spoke_len)) and 0 < spoke_len < math.inf):
            raise BadParams(f"parameter 'spoke_len' must be positive and finite, got {spoke_len!r}")
        edges = [(0, i, spoke_len) for i in range(1, n + 1)]
        tree = MetricTree(n + 1, edges, tol=tol)
        points = {"hub": tree.node_point(0)}
        points.update({f"tip{i}": tree.node_point(i) for i in range(1, n + 1)})
        return TreeDocument(tree, points)

    # combs: spine node 0 at x=0, spine node k at x=1/(n+1-k) for k=1..n,
    # tooth tip node n+k hangs off spine node k.
    n = _count(params.pop("n", None), "parameter 'n'")
    if params:
        raise BadParams(f"unexpected parameters {sorted(params)}")
    xs = [1.0 / k for k in range(n, 0, -1)]  # ascending positions 1/n .. 1
    edges = []
    prev_x = 0.0
    prev_node = 0
    for k, x in enumerate(xs, start=1):
        edges.append((prev_node, k, x - prev_x))
        prev_x, prev_node = x, k
    for k, x in enumerate(xs, start=1):
        tooth = x if name == "comb_compact" else 1.0
        edges.append((k, n + k, tooth))
    tree = MetricTree(2 * n + 1, edges, tol=tol)
    points = {"origin": tree.node_point(0)}
    for k, x in enumerate(xs, start=1):
        i = round(1.0 / x)  # tooth index: spine node k sits at x = 1/i
        points[f"base{i}"] = tree.node_point(k)
        points[f"tip{i}"] = tree.node_point(n + k)
    return TreeDocument(tree, points)


# --------------------------------------------------------------------- #
# Matrix text formats                                                      #
# --------------------------------------------------------------------- #


def parse_matrix(text: str, tol: Tolerance | None = None) -> DistanceMatrix:
    """Parse CSV (with label header) or whitespace lower-triangle text.

    The rows are checked in order and their values converted at once; an
    error names the first bad row, a value ``float`` rejects before a row of
    the wrong shape."""
    tol = tol if tol is not None else Tolerance()
    stripped = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not stripped:
        raise InvalidDistanceMatrix("empty matrix document")
    if "," in stripped[0]:
        try:
            rows = list(csv.reader(io.StringIO("\n".join(stripped))))
        except csv.Error as exc:  # such as a field beyond csv.field_size_limit()
            raise InvalidDistanceMatrix(f"unreadable CSV: {exc}") from None
        labels = [c.strip() for c in rows[0][1:]]
        n = len(labels)
        if len(rows) != n + 1:
            raise InvalidDistanceMatrix(f"expected {n} data rows, got {len(rows) - 1}")
        cells = [row[1:] for row in rows[1:]]
        for i, row in enumerate(rows[1:]):
            if len(row) != n + 1 or row[0].strip() != labels[i]:
                _floats(cells[:i], 1)  # a bad value in an earlier row comes first
            if len(row) != n + 1:
                raise InvalidDistanceMatrix(f"row {i + 1} has {len(row) - 1} values, expected {n}")
            if row[0].strip() != labels[i]:
                raise InvalidDistanceMatrix(
                    f"row label {row[0].strip()!r} does not match column label {labels[i]!r}"
                )
        # the upper triangle restates the lower one: a string equal to its
        # mirror's converts to the same value, so only the others convert
        at = np.arange(n)
        within = at[:, None] >= at
        values = np.empty((n, n))
        lower = [row[: i + 1] for i, row in enumerate(cells)]
        values[within] = values.T[within] = _floats(cells, 1, lower)
        flat = list(chain.from_iterable(cells))
        for i, row in enumerate(cells):
            if row[i + 1 :] != flat[(i + 1) * n + i :: n]:
                values[i, i + 1 :] = _floats(cells, 1, [row[i + 1 :]])
        return DistanceMatrix(tuple(labels), values, tol=tol)

    labels = []
    cells = []  # the strict lower triangle, row by row
    for i, line in enumerate(stripped):
        toks = line.split()
        labels.append(toks[0])
        cells.append(toks[1:])
        if len(toks) - 1 != i:
            _floats(cells, 0)
            raise InvalidDistanceMatrix(
                f"row {i} ({toks[0]!r}) has {len(toks) - 1} values, expected {i}"
            )
    n = len(labels)
    at = np.arange(n)
    values = np.zeros((n, n))
    values[at[:, None] > at] = _floats(cells, 0)  # row-major, the order of ``cells``
    return DistanceMatrix(tuple(labels), values + values.T, tol=tol)


def _floats(rows: list[list[str]], first: int, part: list[list[str]] | None = None) -> np.ndarray:
    """The strings of the rows ``part`` (by default ``rows``) as one flat
    float array, each converted as ``float`` converts it; else
    InvalidDistanceMatrix naming the first of ``rows`` (numbered from
    ``first``) that holds a string ``float`` rejects."""
    try:
        return np.fromiter(map(float, chain.from_iterable(rows if part is None else part)), float)
    except ValueError:
        for i, row in enumerate(rows, start=first):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise InvalidDistanceMatrix(f"row {i}: {exc}") from None
        raise


def format_matrix_csv(matrix: DistanceMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(matrix.labels))
    for i, lab in enumerate(matrix.labels):
        writer.writerow([lab] + [repr(float(v)) for v in matrix.values[i]])
    return out.getvalue()


def matrix_from_points(
    tree: MetricTree, points: dict[str, TreePoint] | list[TreePoint]
) -> DistanceMatrix:
    """The pairwise distance matrix of named or listed points, at the tree's tolerance."""
    if isinstance(points, dict):
        labels = tuple(points.keys())
        pts = list(points.values())
    else:
        pts = list(points)
        labels = tuple(f"p{i}" for i in range(len(pts)))
    values = tree._distance_matrix(pts)
    return DistanceMatrix(labels, values, tol=tree.tol)
