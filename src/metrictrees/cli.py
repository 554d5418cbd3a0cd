"""Command-line front end.

Subcommands
-----------
check    MATRIX                 verify a distance matrix is a tree metric
build    MATRIX --tree-out T    reconstruct a tree document from a tree metric
measure  TREE [NAME...]         covering profiles and relation checks
cover    TREE [NAME...]         one optimal cover (--radius R) or partition
                                (--diameter D)
kappa    TREE                   randomized Lifschitz-characteristic probe
gallery  NAME [k=v...]          write a named example tree

Exit codes: 0 success, 1 I/O or usage error, 2 mathematical verdict "no"
(not a tree metric, or a relation check failed).  Each report carries
schema, command and, but for gallery, input; it is emitted in full or not
at all, and with a fixed --seed its JSON is byte-identical across runs.
--tree-out and --out may not name the same file, and gallery without
--tree-out, which prints its document, takes no --out or --format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import reports
from .core import Tolerance
from .covering import PointSet, min_ball_cover, min_diameter_partition
from .errors import MetricTreeError, NotAMetric, NotTreeMetric, UnknownPoint
from .ingest import (
    TreeDocument,
    _realize,
    check_four_point,
    gallery,
    parse_matrix,
    parse_tree,
    serialize_tree,
)
from .noncompactness import measure_report
from .structure import kappa_probe

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit 1, not argparse's 2
        raise _UsageError(message)


@functools.cache  # parsing does not change a parser, so one serves every call
def _build_parser() -> _Parser:
    # the common options are accepted before or after the subcommand; the
    # SUPPRESS defaults keep a subcommand-level occurrence from being
    # overwritten by the parent's default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS, metavar="EPS",
                        help="absolute and relative comparison tolerance")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS,
                        help="write the report here instead of stdout")

    parser = _Parser(
        prog="metrictrees", description=__doc__.splitlines()[0], parents=[common]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="is the matrix a tree metric?", parents=[common])
    p.add_argument("input", metavar="matrix")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("build", help="reconstruct a tree from a matrix", parents=[common])
    p.add_argument("input", metavar="matrix")
    p.add_argument("--tree-out", required=True, metavar="FILE",
                   help="write the reconstructed tree document here")
    p.set_defaults(run=_cmd_build)

    p = sub.add_parser("measure", help="covering profiles of named points", parents=[common])
    p.add_argument("input", metavar="tree")
    p.add_argument("names", nargs="*")
    p.add_argument("--n", type=int, default=None, help="largest part count")
    p.set_defaults(run=_cmd_measure)

    p = sub.add_parser("cover", help="optimal ball cover or diameter partition", parents=[common])
    p.add_argument("input", metavar="tree")
    p.add_argument("names", nargs="*")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--radius", type=float)
    group.add_argument("--diameter", type=float)
    p.set_defaults(run=_cmd_cover)

    p = sub.add_parser("kappa", help="randomized Lifschitz probe", parents=[common])
    p.add_argument("input", metavar="tree")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(run=_cmd_kappa)

    p = sub.add_parser("gallery", help="write a named example tree", parents=[common])
    p.add_argument("name")
    p.add_argument("params", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--tree-out", default=None, metavar="FILE",
                   help="write the tree document here (default: stdout)")
    p.set_defaults(run=_cmd_gallery)
    return parser


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1).rstrip("\n"))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) + "\n"


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file, which need not exist yet."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        pass
    # entries of two names, neither a link, are two files, with no need to
    # resolve the paths, which takes a stat per path component
    if os.path.basename(a) != os.path.basename(b) and not (os.path.islink(a) or os.path.islink(b)):
        return False
    return os.path.realpath(a) == os.path.realpath(b)


def _read(path: str) -> str:
    """The UTF-8 text of ``path``, without a leading byte-order mark; bytes
    that are not UTF-8 are an I/O error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise OSError(f"{path!r} is not UTF-8 text: {exc}") from None


def _resolve_points(args, tol) -> tuple[PointSet, list]:
    """The points named, else the document's named points, else every node."""
    doc = parse_tree(_read(args.input), tol=tol)
    if args.names:
        pts = []
        for name in args.names:
            if name not in doc.points:
                raise UnknownPoint(f"point {name!r} is not defined in the tree document")
            pts.append(doc.points[name])
    elif doc.points:
        pts = list(doc.points.values())
    else:
        pts = [doc.tree.node_point(i) for i in range(doc.tree.n_nodes)]
    return PointSet(doc.tree, pts), pts


# Each command returns (fields, verdict): the raw fields of its report, which
# main stamps and serializes, and whether the verdict is "yes" (exit 0, else 2).
def _cmd_check(args, tol) -> tuple[dict, bool]:
    try:
        matrix = parse_matrix(_read(args.input), tol=tol)
        ok, quad = check_four_point(matrix)
    except NotAMetric as exc:
        return {"is_tree_metric": False, "reason": "not a metric",
                "violating_triple": exc.triple or ()}, False
    if ok:
        return {"is_tree_metric": True, "labels": matrix.labels}, True
    return {"is_tree_metric": False, "reason": "four-point condition fails",
            "violating_quadruple": [matrix.labels[i] for i in quad]}, False


def _cmd_build(args, tol) -> tuple[dict, bool]:
    matrix = parse_matrix(_read(args.input), tol=tol)
    try:
        tree, points, deviation = _realize(matrix)
    except NotAMetric as exc:
        return {"built": False, "reason": "not a metric",
                "violating_triple": exc.triple or ()}, False
    except NotTreeMetric as exc:
        return {"built": False, "reason": "not a tree metric",
                "violating_quadruple": exc.quadruple or ()}, False
    text = serialize_tree(TreeDocument(tree, points))  # before the file is created
    with open(args.tree_out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"built": True, "tree_file": args.tree_out, "n_nodes": tree.n_nodes,
            "points": points, "max_deviation": deviation}, True


def _cmd_measure(args, tol) -> tuple[dict, bool]:
    ps, pts = _resolve_points(args, tol)
    report = measure_report(ps, n_max=args.n)
    return {"points": pts, "report": report}, report.passed


def _cmd_cover(args, tol) -> tuple[dict, bool]:
    ps, pts = _resolve_points(args, tol)
    if args.radius is not None:
        return {"points": pts, "mode": "radius", "cover": min_ball_cover(ps, args.radius)}, True
    return {"points": pts, "mode": "diameter",
            "partition": min_diameter_partition(ps, args.diameter)}, True


def _cmd_kappa(args, tol) -> tuple[dict, bool]:
    tree = parse_tree(_read(args.input), tol=tol).tree
    report = kappa_probe(tree, args.trials, rng=args.seed, eps=args.eps)
    return {"seed": args.seed, "report": report}, report.consistent


def _parse_params(raw: list[str]) -> dict:
    params = {}
    for item in raw:
        if "=" not in item:
            raise _UsageError(f"gallery parameters look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                raise _UsageError(f"parameter {key!r} needs a numeric value, got {value!r}")
    return params


def _cmd_gallery(args, tol) -> tuple[dict | None, bool]:
    doc = gallery(args.name, tol=tol, **_parse_params(args.params))
    if not args.tree_out:  # the document goes to stdout, in place of a report
        sys.stdout.write(serialize_tree(doc))
        return None, True
    with open(args.tree_out, "w", encoding="utf-8") as fh:
        fh.write(serialize_tree(doc))
    return {"name": args.name, "tree_file": args.tree_out, "n_nodes": doc.tree.n_nodes,
            "point_names": list(doc.points)}, True


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # gallery without --tree-out prints its document, not a report; the
        # SUPPRESS defaults leave --format and --out unset unless given
        if args.command == "gallery" and not args.tree_out:
            if hasattr(args, "format") or hasattr(args, "out"):
                raise _UsageError("gallery takes --out and --format only with --tree-out")
        # the common options carry SUPPRESS defaults (so a pre-subcommand
        # occurrence survives the subparser); fill the fallbacks here
        for key, default in (("tol", 1e-9), ("format", "json"), ("out", None)):
            if not hasattr(args, key):
                setattr(args, key, default)
        if args.out and getattr(args, "tree_out", None) and _same_file(args.out, args.tree_out):
            raise _UsageError("--tree-out and --out name the same file")
        fields, verdict = args.run(args, Tolerance(args.tol, args.tol))
        if fields is not None:
            head = {"schema": reports.SCHEMA_VERSION, "command": args.command}
            if hasattr(args, "input"):  # every command but gallery reads one file
                head["input"] = args.input
            _emit(reports.report_obj({**head, **fields}), args)
        return 0 if verdict else 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MetricTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
