"""The public names: every ``__all__`` entry resolves, removed names stay gone."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import metrictrees

MODULES = ("cli", "core", "covering", "errors", "ingest", "noncompactness", "reports",
           "sampling", "structure")

# pass-through wrappers and per-report builders that were folded into
# ``MetricTree``, ``Segment.intersect`` and ``reports.report_obj``, the
# ``LeafSet`` tuple wrapper, the sample counts of the Lifschitz checks,
# which are exact, and the contraction bound check, which tested x <= 2x
REMOVED = ("validate_tree", "segment_intersection", "point_obj", "profile_obj",
           "ball_cover_obj", "partition_obj", "measure_obj", "embedding_obj",
           "contraction_obj", "bound_check_obj", "witness_obj", "counterexample_obj",
           "kappa_obj", "LeafSet", "COUNTEREXAMPLE_SAMPLES", "PROBE_SAMPLES_PER_EDGE",
           "contraction_bound_check", "BoundCheckReport")


# report fields that restated another verdict: the embedding report's beta
# half, which its alpha half implies, and the counterexample's literal-True
# flags with the ``passed`` that restated ``containment_ok``
REMOVED_FIELDS = (("EmbeddingReport", "source_beta"), ("EmbeddingReport", "host_beta"),
                  ("EmbeddingReport", "beta_invariant"),
                  ("CounterexampleRecord", "diameter_exceeds_2r"),
                  ("CounterexampleRecord", "no_small_ball_ok"),
                  ("CounterexampleRecord", "passed"))


# the MetricTree tables read outside core and _build, each with its reason
TABLE_READERS = {
    ("sampling", "_edge_len"): "edge_samples spaces points along every edge at once, "
                               "off the lengths column, as core's array kernels do",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"metrictrees.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_reports_exports_one_serializer():
    from metrictrees import reports

    assert reports.__all__ == ["SCHEMA_VERSION", "report_obj"]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    from metrictrees import core, noncompactness, reports, structure

    for module in (metrictrees, core, noncompactness, reports, structure):
        assert not hasattr(module, name)


@pytest.mark.parametrize(("cls", "name"), REMOVED_FIELDS)
def test_removed_fields_are_gone(cls, name):
    report = getattr(metrictrees, cls)
    assert name not in {f.name for f in dataclasses.fields(report)}
    assert not hasattr(report, name)


def test_unused_knobs_are_gone():
    assert not hasattr(metrictrees.TreePoint, "is_node")
    assert "samples" not in inspect.signature(metrictrees.lifschitz_counterexample).parameters
    assert "samples_per_edge" not in inspect.signature(metrictrees.kappa_probe).parameters
    assert "test_points" not in inspect.signature(metrictrees.lifschitz_witness).parameters


@pytest.mark.parametrize("name", ["random_tree", "lifschitz_counterexample", "matrix_from_points"])
def test_no_unset_tolerance(name):
    # no caller set these; the trees take the default tolerance and the
    # matrix its tree's
    assert "tol" not in inspect.signature(getattr(metrictrees, name)).parameters


def test_only_core_reads_tree_tables():
    """No module but ``core`` and ``_build`` reads a ``MetricTree`` table, a
    name in its ``__slots__`` other than ``n_nodes`` and ``tol``, outside
    ``TABLE_READERS``: a rule that needs the tables is core's to state."""
    tables = set(metrictrees.MetricTree.__slots__) - {"n_nodes", "tol"}
    reads = set()
    for path in sorted(Path(metrictrees.__file__).parent.glob("*.py")):
        if path.stem not in ("core", "_build"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in tables:
                    reads.add((path.stem, node.attr))
    assert reads == set(TABLE_READERS)
