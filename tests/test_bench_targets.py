"""The tracer in ``bench/layers.py`` wraps library functions by name; a
rename or removal in the library would break ``bench/run.py --trace 1``
only when that run starts.  These tests resolve its targets now."""

import importlib.util
from pathlib import Path

import pytest

from metrictrees import gallery

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_callable(layers):
    assert layers.TARGETS
    for name, owner, attr, _hot, _tally in layers.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_tallies_read_their_results(layers):
    doc = gallery("simple")
    tree, p = doc.tree, doc.points
    tally = dict((name, t) for name, _o, _a, _h, t in layers.TARGETS if t)["core.segment"]
    assert tally[0] == "chain_nodes"
    seg = tree.segment(p["C"], p["D"])
    assert len(seg.node_chain) == tally[1](seg) == 1


def test_traced_calls_count_and_restore(layers):
    from metrictrees import MetricTree

    original = MetricTree.segment
    tracer = layers.Tracer()
    tracer.install()
    try:
        doc = gallery("simple")
        p = doc.points
        doc.tree.segment(p["C"], p["D"]).point_at(1.0)
    finally:
        tracer.uninstall()
    assert MetricTree.segment is original
    assert tracer.stats[-1, "core.segment"][0] == 1
    assert tracer.stats[-1, "core.point_at"][0] == 1
    assert tracer.counts[-1, "core.segment.chain_nodes"] == 1
