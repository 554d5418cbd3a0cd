"""Every verdict a report carries can come out False.

The walk below collects each bool field (or tuple of bools) and each
``passed``/``consistent`` property of the report dataclasses the package
exports.  Each verdict either has a case here that makes it False, an
input or a mutant patched in for the one test, or sits on
``BY_CONSTRUCTION``: verdicts that hold by the way they are computed,
each with the ROADMAP item that will certify it.  That list may only
shrink.  ``leaf_cover_check``, whose verdict is a plain tuple, has its
own mutant case at the end.
"""

import dataclasses
import inspect

import pytest

import metrictrees
from metrictrees import (
    MetricTree,
    PointSet,
    Tolerance,
    embedding_invariance_check,
    gallery,
    kappa_probe,
    leaf_cover_check,
    lifschitz_counterexample,
    lifschitz_witness,
    noncompactness,
    structure,
)

VERDICT_PROPERTIES = ("passed", "consistent")

# verdicts no input can make False, and the ROADMAP item that will
# certify each
BY_CONSTRUCTION = {
    # alpha and beta* are derived from beta, so they are twice it
    "MeasureReport.alpha_twice_beta": 6,
    "MeasureReport.beta_star_twice_beta": 6,
    "MeasureReport.passed": 6,
}


def _verdicts():
    """``Class.name`` of every verdict on an exported report dataclass."""
    found = set()
    for name in dir(metrictrees):
        cls = getattr(metrictrees, name)
        if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)):
            continue
        for f in dataclasses.fields(cls):
            if "bool" in str(f.type):
                found.add(f"{name}.{f.name}")
        for prop in VERDICT_PROPERTIES:
            if isinstance(getattr(cls, prop, None), property):
                found.add(f"{name}.{prop}")
    return found


def _path(k):
    return MetricTree(k + 1, [(i, i + 1, 1.0) for i in range(k)])


def _center_at_x(monkeypatch):
    """Mutant: the point at arc length t from x is x, so the Lifschitz
    center drops its eps*r step along [x, y]."""
    monkeypatch.setattr(MetricTree, "point_at", lambda self, x, y, t: x)


def _witness(monkeypatch):
    _center_at_x(monkeypatch)
    tree = _path(4)
    _w, verification = lifschitz_witness(tree, tree.node_point(1), tree.node_point(3), 1.5, 0.5)
    return verification


def _embedding(monkeypatch):
    """Mutant: the host's copy of the set loses its last point."""
    monkeypatch.setattr(noncompactness, "PointSet", lambda tree, pts: PointSet(tree, pts[:-1]))
    doc = gallery("star", n=3)
    tips = [doc.points[f"tip{i}"] for i in range(1, 4)]
    return embedding_invariance_check(PointSet(doc.tree, tips), doc.tree, tips)


def _strict_leq(monkeypatch):
    """Mutant: ``Tolerance.leq`` is a strict comparison with no slack."""
    monkeypatch.setattr(Tolerance, "leq", lambda self, a, b: a < b)
    return lifschitz_counterexample(1.0, 1.5)


def _kappa(monkeypatch):
    _center_at_x(monkeypatch)
    return kappa_probe(_path(4), 20, rng=1)


CASES = {
    "EmbeddingReport.alpha_invariant": lambda mp: _embedding(mp).alpha_invariant,
    "EmbeddingReport.passed": lambda mp: _embedding(mp).passed,
    "WitnessVerification.passed": lambda mp: _witness(mp).passed,
    # a = 1.5 puts u at 1.75 r from w, on the path
    "CounterexampleRecord.clamped": lambda mp: lifschitz_counterexample(1.0, 1.5).clamped,
    # v sits exactly 2r from y
    "CounterexampleRecord.containment_ok": lambda mp: _strict_leq(mp).containment_ok,
    "KappaReport.vacuous": lambda mp: kappa_probe(_path(2), 1, rng=0).vacuous,
    "KappaReport.consistent": lambda mp: _kappa(mp).consistent,
}


def test_every_verdict_has_a_case_or_is_listed():
    verdicts = _verdicts()
    assert not set(CASES) & set(BY_CONSTRUCTION)
    assert verdicts == set(CASES) | set(BY_CONSTRUCTION)


def test_the_list_only_shrinks():
    # the entries are named once more here, so that a new one fails
    assert set(BY_CONSTRUCTION) <= {
        "MeasureReport.alpha_twice_beta",
        "MeasureReport.beta_star_twice_beta",
        "MeasureReport.passed",
    }


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_verdict_can_be_false(verdict, monkeypatch):
    value = CASES[verdict](monkeypatch)
    if isinstance(value, tuple):
        assert value and not all(value)
    else:
        assert value is False


def test_leaf_cover_check_can_fail(monkeypatch):
    """Mutant: every leaf witness is the base point a itself, a leaf of
    the simple tree that lies beyond no other point."""
    monkeypatch.setattr(structure, "leaf_through", lambda a, m: a)
    doc = gallery("simple")
    tree = doc.tree
    nodes = [tree.node_point(i) for i in range(tree.n_nodes)]
    assert leaf_cover_check(tree, nodes[0], nodes) == (False, nodes[1])
