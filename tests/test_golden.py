"""Default JSON output pinned byte for byte.

``tests/golden`` holds three tree documents (the star and comb gallery trees
and a seeded random tree with seven edge and node points), two distance
matrices (the pairwise distances of the random tree's named points, and a
unit 4-cycle with a hub, a metric that is not a tree metric) and the exact
bytes each command writes for them: ``measure`` (default n and ``--n 2``),
``cover --radius``, ``cover --diameter`` and ``kappa --trials 3 --seed 1``
per tree, ``check`` per matrix, and ``build`` (its report and the tree
document it writes) on the tree metric.  Any change to those bytes is a
change to the output format and must be made on purpose, by regenerating
the files.
"""

import shutil
from pathlib import Path

import pytest

from metrictrees.cli import main

GOLDEN = Path(__file__).parent / "golden"

RADIUS = {"star": "0.9", "comb": "0.3", "random": "1.5"}
DIAMETER = {"star": "1.8", "comb": "0.6", "random": "3.0"}


def _cases():
    for name in ("star", "comb", "random"):
        tree = f"{name}.tree"
        yield f"{name}.measure", ["measure", tree], 0
        yield f"{name}.measure-n2", ["measure", tree, "--n", "2"], 0
        yield f"{name}.cover-radius", ["cover", tree, "--radius", RADIUS[name]], 0
        yield f"{name}.cover-diameter", ["cover", tree, "--diameter", DIAMETER[name]], 0
        yield f"{name}.kappa-t3-s1", ["kappa", tree, "--trials", "3", "--seed", "1"], 0
    yield "additive.check", ["check", "additive.matrix"], 0
    yield "square.check", ["check", "square.matrix"], 2
    yield "additive.build", ["build", "additive.matrix", "--tree-out", "additive.build.tree"], 0


CASES = list(_cases())


@pytest.mark.parametrize("stem, argv, code", CASES, ids=[stem for stem, _, _ in CASES])
def test_default_json_bytes(stem, argv, code, tmp_path, monkeypatch):
    # the report echoes the paths it was given, so run in a copy of the input
    shutil.copy(GOLDEN / argv[1], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "report.json"]) == code
    assert Path("report.json").read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()
    if "--tree-out" in argv:
        written = argv[argv.index("--tree-out") + 1]
        assert Path(written).read_bytes() == (GOLDEN / written).read_bytes()
