"""Default JSON output pinned byte for byte.

``tests/golden`` holds three tree documents (the star and comb gallery trees
and a seeded random tree with seven edge and node points) and the exact
bytes that ``measure`` (default n and ``--n 2``), ``cover --radius`` and
``cover --diameter`` write for each.  Any change to those bytes is a change
to the output format and must be made on purpose, by regenerating the files.
"""

from pathlib import Path

import pytest

from metrictrees.cli import main

GOLDEN = Path(__file__).parent / "golden"

RADIUS = {"star": "0.9", "comb": "0.3", "random": "1.5"}
DIAMETER = {"star": "1.8", "comb": "0.6", "random": "3.0"}


def _cases():
    for name in ("star", "comb", "random"):
        tree = f"{name}.tree"
        yield f"{name}.measure", ["measure", tree]
        yield f"{name}.measure-n2", ["measure", tree, "--n", "2"]
        yield f"{name}.cover-radius", ["cover", tree, "--radius", RADIUS[name]]
        yield f"{name}.cover-diameter", ["cover", tree, "--diameter", DIAMETER[name]]


@pytest.mark.parametrize("stem, argv", list(_cases()), ids=[s for s, _ in _cases()])
def test_default_json_bytes(stem, argv, tmp_path, monkeypatch):
    # the report echoes the input path, so run from the golden directory
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()
