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

Recognition
-----------
``check_four_point`` and ``tree_from_distances`` share one recognizer that
certifies or scans.  It checks the triangle inequality one row at a time,
reconstructs a tree once and re-measures every label pair on it.  When the
largest deviation ``dev`` from the matrix satisfies
``4*dev + (4*n_nodes + 4)*eps*scale < slack`` (``scale`` twice the largest
entry, ``eps`` the float epsilon, ``slack`` the four-point slack), every
quadruple passes the four-point test: an exact tree metric's two largest
pairing sums are equal, the matrix's lie within ``4*dev`` of them, and the
``eps`` term bounds the rounding of the tree distances and of the sums.
Otherwise a scan over the quadruples, one (i, j) pair at a time, finds the
first violation in lexicographic order.  Either way the verdict is the one the
brute-force test gives.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .core import MetricTree, Tolerance, TreePoint, _Columns, _is_number_type
from .errors import (
    BadParams,
    InvalidDistanceMatrix,
    MetricTreeError,
    NotAMetric,
    NotTreeMetric,
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
        if not np.all(np.isfinite(values)):
            raise InvalidDistanceMatrix("matrix entries must be finite")
        if np.any(values > _LARGEST_ENTRY):
            i, j = map(int, np.argwhere(values > _LARGEST_ENTRY)[0])
            raise InvalidDistanceMatrix(
                f"entry at ({i}, {j}) exceeds {_LARGEST_ENTRY!r}, the largest "
                "whose sums of distances stay finite"
            )
        if np.any(values < 0):
            i, j = map(int, np.argwhere(values < 0)[0])
            raise InvalidDistanceMatrix(f"negative entry at ({i}, {j})")
        scale = float(values.max(initial=0.0))
        slack = self.tol.slack(scale)
        if np.any(np.abs(values - values.T) > slack):
            i, j = map(int, np.argwhere(np.abs(values - values.T) > slack)[0])
            raise InvalidDistanceMatrix(f"asymmetric at ({i}, {j})")
        if np.any(np.abs(np.diag(values)) > slack):
            i = int(np.argmax(np.abs(np.diag(values))))
            raise InvalidDistanceMatrix(f"nonzero diagonal at ({i}, {i})")
        values = 0.5 * (values + values.T)
        np.fill_diagonal(values, 0.0)
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

        One numpy comparison per row i over the k x k slab of (j, k), in the
        float expression ``d[i,k] > (d[i,j] + d[j,k]) + slack``.
        """
        d = self.values
        slack = self.tol.slack(float(d.max(initial=0.0)))
        for i, row in enumerate(d):
            bound = row[:, None] + d
            bound += slack
            bad = row > bound
            hit = int(np.argmax(bad))
            if bad.flat[hit]:
                return (i, *divmod(hit, len(row)))
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
    tuple[MetricTree, dict[str, TreePoint], np.ndarray] | MetricTreeError,
]:
    """Certify or scan: (first violating quadruple or None, reconstruction).

    The reconstruction is the tree, the label points and the tree distances
    between the labels, or the error that building it raised.  Raises
    NotAMetric when the triangle inequality fails.
    """
    triple = matrix.metric_violation()
    if triple is not None:
        raise NotAMetric(f"triangle inequality fails on {triple}", triple=triple)
    d = matrix.values
    scale = 2.0 * float(d.max(initial=0.0))
    slack = matrix.tol.slack(scale)
    try:
        tree, points = _reconstruct(matrix)
    except MetricTreeError as exc:
        return _four_point_violation(d, slack), exc
    measured = tree._distance_matrix(list(points.values()))
    dev = float(np.abs(measured - d).max(initial=0.0))
    # strict, so that a zero slack never certifies
    certified = 4.0 * dev + (4 * tree.n_nodes + 4) * _EPS * scale < slack
    quad = None if certified else _four_point_violation(d, slack)
    return quad, (tree, points, measured)


def check_four_point(
    matrix: DistanceMatrix,
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Test the four-point condition; returns (ok, violating quadruple).

    For every quadruple, the two largest of the three pairing sums
    ``d(i,j)+d(k,l)``, ``d(i,k)+d(j,l)``, ``d(i,l)+d(j,k)`` must be equal
    (up to tolerance); equivalently each sum is bounded by the maximum of
    the other two.  Raises NotAMetric when the matrix is not even a metric.

    A matrix is certified without a scan when the tree reconstructed from it
    re-measures every entry within ``dev``, where
    ``4*dev + (4*n_nodes + 4)*eps*scale < slack``; otherwise the quadruples
    are scanned for the first violation in lexicographic order (see the
    module docstring).  The verdict and quadruple are the brute-force ones.
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
        edge when t falls strictly inside one."""
        nodes = [v]
        while nodes[-1]:
            nodes.append(self.parent[nodes[-1]])
        nodes.reverse()
        cum = [0.0]
        for b in nodes[1:]:
            cum.append(cum[-1] + self.length[b])
        for k, c in enumerate(cum):
            if abs(c - t) <= snap:
                return nodes[k]
        for k in range(len(nodes) - 1):
            if cum[k] < t < cum[k + 1]:
                b = nodes[k + 1]
                m = self.add_node(nodes[k], t - cum[k])
                self.parent[b] = m
                self.length[b] = self.length[b] - (t - cum[k])
                return m
        # t beyond the path end (can only be float slop): clamp to v
        return v

    def columns(self) -> _Columns:
        """The edges as columns, by (lower, higher) endpoint."""
        edges = sorted((min(p, c), max(p, c), c) for c, p in enumerate(self.parent) if c)
        return _Columns(
            [u for u, _, _ in edges], [v for _, v, _ in edges],
            [float(self.length[c]) for _, _, c in edges],
        )


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


def _realize(matrix: DistanceMatrix) -> tuple[MetricTree, dict[str, TreePoint], np.ndarray]:
    """``tree_from_distances`` plus the tree distances between the labels,
    as re-measured to verify the tree."""
    quad, built = _recognize(matrix)
    if quad is not None:
        raise NotTreeMetric(f"four-point condition fails on {quad}", quadruple=quad)
    if isinstance(built, MetricTreeError):
        raise built
    tree, points, measured = built
    d = matrix.values
    verify_slack = matrix.tol.slack(float(d.max(initial=1.0))) * 16.0
    bad = np.argwhere(np.triu(np.abs(measured - d) > verify_slack, 1))
    if len(bad):
        a, b = map(int, bad[0])
        raise NotTreeMetric(
            f"matrix is not additive: labels ({a}, {b}) re-measure to "
            f"{float(measured[a, b])!r}, expected {d[a, b]!r}"
        )
    return tree, points, measured


def _reconstruct(matrix: DistanceMatrix) -> tuple[MetricTree, dict[str, TreePoint]]:
    """The tree ``tree_from_distances`` builds, unchecked, and the label points."""
    n = matrix.size
    tol = matrix.tol
    snap = tol.slack(float(matrix.values.max(initial=1.0))) * 4.0
    d = matrix.values.tolist()  # floats index faster than numpy scalars; d[x][j] == d[j][x]

    builder = _Builder()
    position = [0] * n  # node id per label; label 0 starts at node 0
    for x in range(1, n):
        row = d[x]
        dup = next((j for j in range(x) if row[j] <= snap), None)
        if dup is not None:
            position[x] = position[dup]
            continue
        i = 0  # the reference label; it sits at node 0, the builder's root
        ref = d[i]
        best_t, best_j = 0.0, None
        for j in range(1, x):
            t = 0.5 * (ref[x] + ref[j] - row[j])
            if best_j is None or t > best_t:
                best_t, best_j = t, j
        if best_j is None:
            attach = position[i]
        else:
            best_t = min(max(best_t, 0.0), ref[best_j])
            attach = builder.locate(position[best_j], best_t, snap)
        rem = ref[x] - best_t if best_j is not None else ref[x]
        if rem <= snap:
            position[x] = attach
        else:
            position[x] = builder.add_node(attach, rem)

    tree = MetricTree(len(builder.parent), builder.columns(), tol=tol)
    return tree, {matrix.labels[k]: tree.node_point(position[k]) for k in range(n)}


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


_CHUNK = 256  # lines split at a time: thousands alive at once fragment the heap


def _read_lines(text: str) -> tuple[_Columns, list[int], list[tuple[int, str, tuple]]]:
    """The edge columns, node ids and point lines of a tree document.  Each
    column of a chunk's well-formed edge lines is converted by one ``map``;
    then its other lines are read in order, and all of them when a column
    does not convert, so that an error names the first bad line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    columns = _Columns([], [], [])
    node_ids: list[int] = []
    point_lines: list[tuple[int, str, tuple]] = []
    for first in range(0, len(lines), _CHUNK):
        chunk = lines[first : first + _CHUNK]
        rows = [line.split() for line in chunk]
        edge_rows = [words for words in rows if len(words) == 4 and words[0] == "edge"]
        try:
            for column, k, conv in zip(columns, (1, 2, 3), (int, int, float)):
                column.extend(map(conv, map(itemgetter(k), edge_rows)))
        except ValueError:
            columns = None  # the scan below raises at the first bad number
        for lineno, (line, words) in enumerate(zip(chunk, rows), start=first + 1):
            if not words:
                continue
            kind = words[0]
            if kind == "edge":
                if len(words) != 4:
                    raise _error_at(line, lineno, 0, "edge line takes: edge <u> <v> <length>")
                if columns is None:
                    _raise_number_error(line, lineno, words, 1, (int, int, float))
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
    return columns, node_ids, point_lines


def parse_tree(text: str, tol: Tolerance | None = None) -> TreeDocument:
    """Parse a tree document; raises TreeParseError with line/column."""
    columns, node_ids, point_lines = _read_lines(text)
    ids = set(node_ids)
    ids.update(columns.us)
    ids.update(columns.vs)
    if not ids:
        raise TreeParseError("document defines no nodes", 1, 1)
    n_nodes = len(ids)
    if min(ids) < 0:
        raise TreeParseError(f"node id {min(ids)} is negative", 1, 1)
    if max(ids) >= n_nodes:
        # checked before the tree allocates max(id) + 1 slots; some id in
        # 0..n_nodes is free because only n_nodes of them are used
        missing = next(k for k in range(n_nodes + 1) if k not in ids)
        raise TreeParseError(
            f"node ids must be 0..n-1 with none skipped; node {missing} is missing", 1, 1
        )
    tree = MetricTree(n_nodes, columns, tol=tol)

    points: dict[str, TreePoint] = {}
    for lineno, name, where in point_lines:
        if name in points:
            raise TreeParseError(f"duplicate point name {name!r}", lineno)
        points[name] = tree.node_point(*where) if len(where) == 1 else tree.edge_point(*where)
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
    if not doc.tree.edges:
        for i in range(doc.tree.n_nodes):
            out.append(f"node {i}")
    for u, v, length in doc.tree.edges:
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

    def want_pos_int(key: str, default=None) -> int:
        val = params.pop(key, default)
        if val is None:
            raise BadParams(f"gallery {name!r} requires parameter {key!r}")
        try:
            number = int(val)
        except (TypeError, ValueError, OverflowError):  # also NaN and +-inf
            number = None
        if number is None or isinstance(val, bool) or number != val or number < 1:
            raise BadParams(f"parameter {key!r} must be a positive integer")
        return number

    if name == "simple":
        if params:
            raise BadParams(f"gallery 'simple' takes no parameters, got {sorted(params)}")
        tree = MetricTree(4, [(0, 1, 2.0), (1, 2, 1.0), (1, 3, 1.0)], tol=tol)
        points = {nm: tree.node_point(i) for i, nm in enumerate("ABCD")}
        return TreeDocument(tree, points)

    if name == "star":
        n = want_pos_int("n")
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
    n = want_pos_int("n")
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
    """Parse CSV (with label header) or whitespace lower-triangle text."""
    tol = tol if tol is not None else Tolerance()
    stripped = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not stripped:
        raise InvalidDistanceMatrix("empty matrix document")
    if "," in stripped[0]:
        rows = list(csv.reader(io.StringIO("\n".join(stripped))))
        labels = [c.strip() for c in rows[0][1:]]
        n = len(labels)
        if len(rows) != n + 1:
            raise InvalidDistanceMatrix(f"expected {n} data rows, got {len(rows) - 1}")
        values = np.zeros((n, n))
        for i, row in enumerate(rows[1:]):
            if len(row) != n + 1:
                raise InvalidDistanceMatrix(f"row {i + 1} has {len(row) - 1} values, expected {n}")
            if row[0].strip() != labels[i]:
                raise InvalidDistanceMatrix(
                    f"row label {row[0].strip()!r} does not match column label {labels[i]!r}"
                )
            try:
                values[i] = [float(c) for c in row[1:]]
            except ValueError as exc:
                raise InvalidDistanceMatrix(f"row {i + 1}: {exc}")
        return DistanceMatrix(tuple(labels), values, tol=tol)

    labels = []
    tri: list[float] = []  # the strict lower triangle, row by row
    for i, line in enumerate(stripped):
        toks = line.split()
        labels.append(toks[0])
        try:
            vals = [float(t) for t in toks[1:]]
        except ValueError as exc:
            raise InvalidDistanceMatrix(f"row {i}: {exc}")
        if len(vals) != i:
            raise InvalidDistanceMatrix(
                f"row {i} ({toks[0]!r}) has {len(vals)} values, expected {i}"
            )
        tri += vals
    n = len(labels)
    values = np.zeros((n, n))
    rows, cols = np.tril_indices(n, -1)  # row-major, the order of ``tri``
    values[rows, cols] = values[cols, rows] = tri
    return DistanceMatrix(tuple(labels), values, tol=tol)


def format_matrix_csv(matrix: DistanceMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(matrix.labels))
    for i, lab in enumerate(matrix.labels):
        writer.writerow([lab] + [repr(float(v)) for v in matrix.values[i]])
    return out.getvalue()


def matrix_from_points(
    tree: MetricTree,
    points: dict[str, TreePoint] | list[TreePoint],
    tol: Tolerance | None = None,
) -> DistanceMatrix:
    """Extract the pairwise distance matrix of named or listed points."""
    if isinstance(points, dict):
        labels = tuple(points.keys())
        pts = list(points.values())
    else:
        pts = list(points)
        labels = tuple(f"p{i}" for i in range(len(pts)))
    values = tree._distance_matrix(pts)
    return DistanceMatrix(labels, values, tol=tol if tol is not None else tree.tol)
