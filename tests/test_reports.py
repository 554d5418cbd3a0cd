"""``reports.report_obj`` against the per-report builders it replaced.

Until the generic serializer, each report's JSON was written out by hand in
one builder per report type.  Those builders are kept below as the
reference: for every report type, on reports computed over random trees,
``report_obj`` must give the same JSON.
"""

import json

import numpy as np
import pytest

from metrictrees import (
    MetricTree,
    PointMap,
    PointSet,
    alpha_profile,
    beta_profile,
    beta_star_profile,
    contraction_constants,
    diameter,
    embedding_invariance_check,
    kappa_probe,
    lifschitz_counterexample,
    lifschitz_witness,
    measure_report,
    min_ball_cover,
    min_diameter_partition,
    random_points,
    random_tree,
)
from metrictrees.reports import report_obj

# --------------------------------------------------------------------- #
# The builders report_obj replaced, kept as the reference                #
# --------------------------------------------------------------------- #


def point_obj(p):
    return p.record()


def profile_obj(profile):
    return {
        "kind": profile.kind,
        "values": [{"n": k + 1, "value": v} for k, v in enumerate(profile.values)],
    }


def ball_cover_obj(cover):
    return {
        "radius": cover.radius,
        "centers": [point_obj(c) for c in cover.centers],
        "assignment": list(cover.assignment),
    }


def partition_obj(partition):
    return {
        "diameter_bound": partition.diameter_bound,
        "blocks": [list(b) for b in partition.blocks],
    }


def measure_obj(report):
    return {
        "n_max": report.n_max,
        "alpha": profile_obj(report.alpha),
        "beta": profile_obj(report.beta),
        "beta_star": profile_obj(report.beta_star),
        "alpha_twice_beta": list(report.alpha_twice_beta),
        "beta_star_twice_beta": list(report.beta_star_twice_beta),
        "ratios": list(report.ratios),
        "passed": report.passed,
        "witness_covers": [ball_cover_obj(c) for c in report.beta.witnesses],
        "witness_partitions": [partition_obj(p) for p in report.alpha.witnesses],
    }


def embedding_obj(report):
    return {
        "n_max": report.n_max,
        "source_alpha": list(report.source_alpha),
        "host_alpha": list(report.host_alpha),
        "alpha_invariant": list(report.alpha_invariant),
        "passed": report.passed,
    }


def contraction_obj(report):
    return {
        "ns": list(report.ns),
        "ball_ratios": list(report.ball_ratios),
        "skipped": list(report.skipped),
        "k_ball": report.k_ball,
    }


def witness_obj(w, verification):
    return {
        "x": point_obj(w.x),
        "y": point_obj(w.y),
        "r": w.r,
        "eps": w.eps,
        "a": w.a,
        "b": w.b,
        "z": point_obj(w.z),
        "checked": verification.checked,
        "applicable": verification.applicable,
        "failures": [point_obj(p) for p in verification.failures],
        "passed": verification.passed,
    }


def counterexample_obj(rec):
    return {
        "r": rec.r,
        "a": rec.a,
        "w": point_obj(rec.w),
        "v": point_obj(rec.v),
        "y": point_obj(rec.y),
        "x": point_obj(rec.x),
        "u": point_obj(rec.u),
        "clamped": rec.clamped,
        "uv_diameter": rec.uv_diameter,
        "containment_ok": rec.containment_ok,
    }


def kappa_obj(report):
    return {
        "trials": report.trials,
        "witness_trials": report.witness_trials,
        "witness_failures": report.witness_failures,
        "counterexample_trials": report.counterexample_trials,
        "counterexample_failures": report.counterexample_failures,
        "vacuous": report.vacuous,
        "consistent": report.consistent,
    }


# --------------------------------------------------------------------- #


def _copy_point(host, p):
    rec = p.record()
    if rec["kind"] == "node":
        return host.node_point(rec["node"])
    return host.edge_point(rec["u"], rec["v"], rec["offset"])


def _reports(seed):
    """(kind, new JSON, reference JSON) for one report of each type."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n_nodes=int(rng.integers(2, 10)))
    pts = random_points(rng, tree, int(rng.integers(1, 7)))
    ps = PointSet(tree, pts)
    diam, (x, y) = diameter(ps)
    n = tree.n_nodes

    rep = measure_report(ps)
    yield "measure", report_obj(rep), measure_obj(rep)
    cover = min_ball_cover(ps, float(rng.uniform(0.0, diam)))
    yield "ball_cover", report_obj(cover), ball_cover_obj(cover)
    part = min_diameter_partition(ps, float(rng.uniform(0.0, diam)))
    yield "partition", report_obj(part), partition_obj(part)
    n_max = int(rng.integers(1, len(pts) + 2))
    for profile in (alpha_profile(ps, n_max), beta_profile(ps, n_max),
                    beta_star_profile(ps, n_max)):
        yield "profile", report_obj(profile), profile_obj(profile)

    host = MetricTree(n + 1, [*tree.edges, (int(rng.integers(0, n)), n, 1.5)], tol=tree.tol)
    rep = embedding_invariance_check(ps, host, [_copy_point(host, p) for p in pts])
    yield "embedding", report_obj(rep), embedding_obj(rep)
    sources = list(dict.fromkeys(pts))
    pm = PointMap(tree, tree, list(zip(sources, random_points(rng, tree, len(sources)))))
    rep = contraction_constants(pm)
    yield "contraction", report_obj(rep), contraction_obj(rep)

    rep = kappa_probe(tree, 2, rng=seed)
    yield "kappa", report_obj(rep), kappa_obj(rep)
    rec = lifschitz_counterexample(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.1, 3.5)))
    yield "counterexample", report_obj(rec), counterexample_obj(rec)
    if diam > 0:
        r = float(rng.uniform(0.2, 0.9)) * diam
        w, ver = lifschitz_witness(tree, x, y, r, float(rng.uniform(0.05, 0.95)))
        yield "witness", {**report_obj(w), **report_obj(ver)}, witness_obj(w, ver)

    yield "points", report_obj(pts), [point_obj(p) for p in pts]
    named = {f"p{i}": p for i, p in enumerate(pts)}
    yield "points", report_obj(named), {k: point_obj(p) for k, p in named.items()}


KINDS = ("measure", "ball_cover", "partition", "profile", "embedding", "contraction",
         "kappa", "counterexample", "witness", "points")


@pytest.fixture(scope="module")
def cases():
    out = {kind: [] for kind in KINDS}
    for seed in range(100):
        for kind, new, old in _reports(seed):
            out[kind].append((new, old))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_same_json_as_reference_builder(kind, cases):
    assert len(cases[kind]) >= 60
    for new, old in cases[kind]:
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


def test_failures_are_serialized():
    # a witness whose failure list is nonempty still matches
    tree = MetricTree(3, [(0, 1, 1.0), (1, 2, 1.0)])
    x, y = tree.node_point(0), tree.node_point(2)
    w, ver = lifschitz_witness(tree, x, y, 1.0, 0.5)
    bad = type(ver)(ver.checked, ver.applicable, (tree.node_point(1),))
    assert {**report_obj(w), **report_obj(bad)} == witness_obj(w, bad)
    assert report_obj(bad)["passed"] is False


def test_hidden_fields_and_unknown_values():
    rec = lifschitz_counterexample(1.0, 1.5)
    assert "tree" not in report_obj(rec)
    profile = beta_profile(PointSet(rec.tree, [rec.w, rec.v]), 2)
    assert set(report_obj(profile)) == {"kind", "values"}
    with pytest.raises(TypeError):
        report_obj(rec.tree)
