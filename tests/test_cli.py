"""End-to-end CLI tests: exit codes, report shapes, and determinism."""

import json
import math
from types import SimpleNamespace

import pytest

from metrictrees import format_matrix_csv, gallery, matrix_from_points, parse_tree
from metrictrees import cli, structure
from metrictrees.cli import main
from metrictrees.reports import report_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_star_matrix(path, n=4):
    doc = gallery("star", n=n)
    tips = {f"tip{i}": doc.points[f"tip{i}"] for i in range(1, n + 1)}
    path.write_text(format_matrix_csv(matrix_from_points(doc.tree, tips)))


def write_square_matrix(path):
    s = math.sqrt(2.0)
    rows = [
        "      ,a,b,c,d",
        "a,0,1," + repr(s) + ",1",
        "b,1,0,1," + repr(s),
        "c," + repr(s) + ",1,0,1",
        "d,1," + repr(s) + ",1,0",
    ]
    path.write_text("\n".join(rows) + "\n")


class TestCheck:
    def test_tree_metric_exits_zero(self, tmp_path, capsys):
        matrix = tmp_path / "star.csv"
        write_star_matrix(matrix)
        code, out, _ = run(capsys, "check", str(matrix))
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["is_tree_metric"] is True

    def test_square_exits_two_with_quadruple(self, tmp_path, capsys):
        matrix = tmp_path / "square.csv"
        write_square_matrix(matrix)
        code, out, _ = run(capsys, "check", str(matrix))
        assert code == 2
        report = json.loads(out)
        assert report["is_tree_metric"] is False
        assert len(report["violating_quadruple"]) == 4

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run(capsys, "check", "/no/such/file.csv")
        assert code == 1
        assert out == ""
        assert "io error" in err

    def test_not_a_metric_exits_two(self, tmp_path, capsys):
        matrix = tmp_path / "bad.csv"
        matrix.write_text(",a,b,c\na,0,1,5\nb,1,0,1\nc,5,1,0\n")
        code, out, _ = run(capsys, "check", str(matrix))
        assert code == 2
        assert json.loads(out)["reason"] == "not a metric"

    def test_near_overflow_exits_one(self, tmp_path, capsys):
        matrix = tmp_path / "huge.tri"
        matrix.write_text("a\nb 1e308\nc 1.4142135623730951e308 1e308\n")
        code, out, err = run(capsys, "check", str(matrix))
        assert code == 1
        assert out == ""
        assert "exceeds" in err


class TestBuild:
    def test_roundtrip(self, tmp_path, capsys):
        matrix = tmp_path / "star.csv"
        out_tree = tmp_path / "star.tree"
        write_star_matrix(matrix)
        code, out, _ = run(capsys, "build", str(matrix), "--tree-out", str(out_tree))
        assert code == 0
        report = json.loads(out)
        assert report["built"] is True
        assert report["max_deviation"] <= 1e-9
        doc = parse_tree(out_tree.read_text())
        assert set(doc.points) == {f"tip{i}" for i in range(1, 5)}

    def test_two_labels_single_edge(self, tmp_path, capsys):
        matrix = tmp_path / "pair.csv"
        matrix.write_text(",x,y\nx,0,5\ny,5,0\n")
        out_tree = tmp_path / "pair.tree"
        code, out, _ = run(capsys, "build", str(matrix), "--tree-out", str(out_tree))
        assert code == 0
        doc = parse_tree(out_tree.read_text())
        assert doc.tree.n_nodes == 2
        assert doc.tree.edge_length(0) == 5.0

    def test_asymmetric_exits_one(self, tmp_path, capsys):
        matrix = tmp_path / "asym.csv"
        matrix.write_text(",a,b\na,0,1\nb,2,0\n")
        code, _, err = run(capsys, "build", str(matrix), "--tree-out", "/dev/null")
        assert code == 1
        assert "error" in err

    def test_non_tree_metric_exits_two(self, tmp_path, capsys):
        matrix = tmp_path / "square.csv"
        write_square_matrix(matrix)
        code, out, _ = run(capsys, "build", str(matrix), "--tree-out", "/dev/null")
        assert code == 2
        assert json.loads(out)["built"] is False

    def test_not_a_metric_exits_two_without_file(self, tmp_path, capsys):
        matrix = tmp_path / "bad.csv"
        matrix.write_text(",a,b,c\na,0,1,5\nb,1,0,1\nc,5,1,0\n")
        out_tree = tmp_path / "bad.tree"
        code, out, _ = run(capsys, "build", str(matrix), "--tree-out", str(out_tree))
        assert code == 2
        report = json.loads(out)
        assert (report["built"], report["reason"]) == (False, "not a metric")
        assert sorted(report["violating_triple"]) == [0, 1, 2]
        assert not out_tree.exists()

    def test_unwritable_label_exits_one_without_file(self, tmp_path, capsys):
        # labels a document cannot hold: whitespace, '#'
        matrix = tmp_path / "labels.csv"
        matrix.write_text(",a b,c#d,e\na b,0,1,2\nc#d,1,0,1\ne,2,1,0\n")
        out_tree = tmp_path / "labels.tree"
        code, out, err = run(capsys, "build", str(matrix), "--tree-out", str(out_tree))
        assert code == 1
        assert out == ""
        assert "'a b'" in err
        assert not out_tree.exists()

    @pytest.mark.parametrize("spell", [str, lambda p: f"{p.parent}/./{p.name}", "link"])
    def test_tree_out_equal_to_out_exits_one(self, tmp_path, capsys, spell):
        # the report used to replace the tree just written, with exit 0
        matrix = tmp_path / "star.csv"
        write_star_matrix(matrix)
        same = tmp_path / "same.out"
        if spell == "link":
            (tmp_path / "alias.out").symlink_to(same)
            other = str(tmp_path / "alias.out")
        else:
            other = spell(same)
        code, out, err = run(capsys, "build", str(matrix), "--tree-out", str(same),
                             "--out", other)
        assert (code, out) == (1, "")
        assert err == "usage error: --tree-out and --out name the same file\n"
        assert not same.exists()

    def test_tree_out_and_out_apart(self, tmp_path, capsys):
        matrix = tmp_path / "star.csv"
        write_star_matrix(matrix)
        tree_path, report_path = tmp_path / "star.tree", tmp_path / "report.json"
        code, out, _ = run(capsys, "--out", str(report_path), "build", str(matrix),
                           "--tree-out", str(tree_path))
        assert (code, out) == (0, "")
        assert json.loads(report_path.read_text())["tree_file"] == str(tree_path)
        assert parse_tree(tree_path.read_text()).tree.n_nodes == 5


class TestMeasure:
    @pytest.fixture
    def star_tree_file(self, tmp_path, capsys):
        path = tmp_path / "star.tree"
        code, _, _ = run(capsys, "gallery", "star", "n=4", "--tree-out", str(path))
        assert code == 0
        return path

    def test_star_tips_relations_pass(self, star_tree_file, capsys):
        code, out, _ = run(
            capsys, "measure", str(star_tree_file), "tip1", "tip2", "tip3", "tip4"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["passed"] is True
        assert [v["value"] for v in rep["alpha"]["values"]] == [2.0, 2.0, 2.0, 0.0]
        assert [v["value"] for v in rep["beta"]["values"]] == [1.0, 1.0, 1.0, 0.0]

    def test_no_points_means_every_node(self, tmp_path, capsys):
        path = tmp_path / "bare.tree"
        path.write_text("edge 0 1 2.0\nedge 1 2 1.0\n")
        code, out, _ = run(capsys, "measure", str(path))
        assert code == 0
        body = json.loads(out)
        assert body["points"] == [{"kind": "node", "node": i} for i in range(3)]
        assert [v["value"] for v in body["report"]["beta"]["values"]] == [1.5, 0.5, 0.0]

    def test_single_point_zero_profiles(self, star_tree_file, capsys):
        code, out, _ = run(capsys, "measure", str(star_tree_file), "hub", "--n", "2")
        assert code == 0
        rep = json.loads(out)["report"]
        assert [v["value"] for v in rep["alpha"]["values"]] == [0.0, 0.0]

    def test_nan_offset_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.tree"
        path.write_text("edge 0 1 2.0\npoint p edge 0 1 nan\n")
        code, out, err = run(capsys, "measure", str(path))
        assert code == 1
        assert out == ""
        assert "offset nan outside" in err

    def test_unknown_point_exits_one(self, star_tree_file, capsys):
        code, _, err = run(capsys, "measure", str(star_tree_file), "nope")
        assert code == 1
        assert "nope" in err

    def test_determinism(self, star_tree_file, capsys):
        _, out1, _ = run(capsys, "measure", str(star_tree_file))
        _, out2, _ = run(capsys, "measure", str(star_tree_file))
        assert out1 == out2

    def test_text_format(self, star_tree_file, capsys):
        code, out, _ = run(capsys, "--format", "text", "measure", str(star_tree_file))
        assert code == 0
        assert "passed: True" in out

    def test_common_flags_after_subcommand(self, star_tree_file, capsys):
        code, out, _ = run(capsys, "measure", str(star_tree_file), "--format", "text")
        assert code == 0
        assert "passed: True" in out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_one(self, star_tree_file, capsys, tol):
        code, out, err = run(capsys, "measure", str(star_tree_file), "--tol", tol)
        assert code == 1
        assert out == ""
        assert "finite and nonnegative" in err


class TestCover:
    @pytest.fixture
    def star_tree_file(self, tmp_path, capsys):
        path = tmp_path / "star.tree"
        run(capsys, "gallery", "star", "n=3", "--tree-out", str(path))
        return path

    def test_radius_nine_tenths_needs_three(self, star_tree_file, capsys):
        code, out, _ = run(
            capsys, "cover", str(star_tree_file), "tip1", "tip2", "tip3",
            "--radius", "0.9",
        )
        assert code == 0
        cover = json.loads(out)["cover"]
        assert len(cover["centers"]) == 3

    def test_big_radius_one_center(self, star_tree_file, capsys):
        code, out, _ = run(
            capsys, "cover", str(star_tree_file), "tip1", "tip2", "tip3",
            "--radius", "1.0",
        )
        assert code == 0
        cover = json.loads(out)["cover"]
        assert len(cover["centers"]) == 1
        assert cover["centers"][0] == {"kind": "node", "node": 0}

    def test_center_at_a_sub_tolerance_edge(self, tmp_path, capsys):
        """A center exactly 1.0 up from node 2 sits at the start of the leg
        over the 1e-10 edge (1, 0), so it is node 1, as ``point_at`` gives;
        node 0 would lie 1.0000000001 from node 2."""
        path = tmp_path / "short.tree"
        path.write_text("edge 0 1 1e-10\nedge 1 2 1.0\npoint a node 2\npoint b node 0\n")
        code, out, _ = run(capsys, "cover", str(path), "--radius", "1.0")
        assert code == 0
        cover = json.loads(out)["cover"]
        assert cover["centers"] == [{"kind": "node", "node": 1}]
        tree = parse_tree(path.read_text()).tree
        assert tree.point_at(tree.node_point(2), tree.node_point(0), 1.0) == tree.node_point(1)

    def test_zero_radius_one_per_point(self, star_tree_file, capsys):
        code, out, _ = run(capsys, "cover", str(star_tree_file), "--radius", "0")
        assert code == 0
        cover = json.loads(out)["cover"]
        assert len(cover["centers"]) == 4  # hub + 3 tips

    def test_diameter_partition(self, star_tree_file, capsys):
        code, out, _ = run(
            capsys, "cover", str(star_tree_file), "tip1", "tip2", "tip3",
            "--diameter", "2.0",
        )
        assert code == 0
        part = json.loads(out)["partition"]
        assert len(part["blocks"]) == 1

    def test_negative_radius_exits_one(self, star_tree_file, capsys):
        for radius in ("-1", "nan"):
            code, out, err = run(capsys, "cover", str(star_tree_file), "--radius", radius)
            assert code == 1
            assert out == ""
            assert "radius must be nonnegative" in err

    def test_negative_diameter_exits_one(self, star_tree_file, capsys):
        for bound in ("-1", "nan"):
            code, out, err = run(capsys, "cover", str(star_tree_file), "--diameter", bound)
            assert code == 1
            assert out == ""
            assert "diameter bound must be nonnegative" in err

    def test_infinite_value_exits_one(self, star_tree_file, capsys):
        """JSON has no token for an infinite radius or bound."""
        for flag, what in (("--radius", "radius"), ("--diameter", "diameter bound")):
            code, out, err = run(capsys, "cover", str(star_tree_file), flag, "inf")
            assert code == 1
            assert out == ""
            assert f"{what} must be nonnegative and finite" in err

    def test_requires_a_mode(self, star_tree_file, capsys):
        code, _, err = run(capsys, "cover", str(star_tree_file))
        assert code == 1
        assert "usage error" in err


class TestKappa:
    @pytest.fixture
    def tree_file(self, tmp_path, capsys):
        path = tmp_path / "simple.tree"
        run(capsys, "gallery", "simple", "--tree-out", str(path))
        return path

    def test_probe_passes(self, tree_file, capsys):
        code, out, _ = run(capsys, "kappa", str(tree_file), "--trials", "20")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["consistent"] is True
        assert rep["witness_trials"] == 20

    def test_zero_trials_exits_one(self, tree_file, capsys):
        code, _, err = run(capsys, "kappa", str(tree_file), "--trials", "0")
        assert code == 1

    def test_failures_exit_two_with_report(self, tree_file, capsys, monkeypatch):
        failed = SimpleNamespace(passed=False, containment_ok=False)
        monkeypatch.setattr(structure, "lifschitz_witness", lambda *args: (None, failed))
        monkeypatch.setattr(structure, "lifschitz_counterexample", lambda **kwargs: failed)
        code, out, _ = run(capsys, "kappa", str(tree_file), "--trials", "4")
        assert code == 2
        rep = json.loads(out)["report"]
        assert rep["consistent"] is False
        assert (rep["witness_failures"], rep["counterexample_failures"]) == (4, 4)

    def test_eps_reaches_the_probe(self, tree_file, capsys, monkeypatch):
        doc = parse_tree(tree_file.read_text())
        expected = report_obj(structure.kappa_probe(doc.tree, 6, rng=3, eps=0.5))
        witness, seen = structure.lifschitz_witness, []
        monkeypatch.setattr(
            structure, "lifschitz_witness",
            lambda tree, x, y, r, eps: seen.append(eps) or witness(tree, x, y, r, eps),
        )
        code, out, _ = run(capsys, "kappa", str(tree_file), "--trials", "6", "--seed", "3",
                           "--eps", "0.5")
        assert code == 0
        assert json.loads(out)["report"] == expected
        assert seen == [0.5] * 6

    def test_seeded_byte_identical(self, tree_file, capsys):
        args = ("kappa", str(tree_file), "--trials", "10", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_negative_seed_exits_one(self, tree_file, capsys):
        # np.random.default_rng rejects it; the CLI names the error, no traceback
        code, out, err = run(capsys, "kappa", str(tree_file), "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad seed -1: ")

    def test_eps_checked_on_single_node_tree(self, tree_file, tmp_path, capsys):
        # a one-node tree runs no witness, yet rejects eps as a larger tree does
        one = tmp_path / "one.tree"
        one.write_text("node 0\n")
        for path in (one, tree_file):
            code, out, err = run(capsys, "kappa", str(path), "--eps", "5")
            assert (code, out) == (1, "")
            assert err == "error: eps must lie in (0, 1), got 5.0\n"


class TestGallery:
    def test_simple_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gallery", "simple")
        assert code == 0
        doc = parse_tree(out)
        assert doc.tree.n_nodes == 4

    def test_comb_written(self, tmp_path, capsys):
        path = tmp_path / "comb.tree"
        code, out, _ = run(capsys, "gallery", "comb_compact", "n=4", "--tree-out", str(path))
        assert code == 0
        assert json.loads(out)["n_nodes"] == 9
        doc = parse_tree(path.read_text())
        assert "tip4" in doc.points

    def test_unknown_name_exits_one(self, capsys):
        code, _, err = run(capsys, "gallery", "mobius")
        assert code == 1

    def test_bad_param_exits_one(self, capsys):
        code, _, err = run(capsys, "gallery", "star", "n=abc")
        assert code == 1
        assert "usage error" in err

    def test_param_without_value_exits_one(self, capsys):
        code, out, err = run(capsys, "gallery", "star", "n3")
        assert (code, out) == (1, "")
        assert err == "usage error: gallery parameters look like key=value, got 'n3'\n"

    @pytest.mark.parametrize("name, param", [
        ("star", "n=nan"), ("star", "n=inf"), ("comb_compact", "n=1e400"),
    ])
    def test_non_finite_count_exits_one(self, capsys, name, param):
        # these used to end in a traceback from int()
        code, out, err = run(capsys, "gallery", name, param)
        assert (code, out) == (1, "")
        got = float(param.split("=", 1)[1])
        assert err == f"error: parameter 'n' must be an integer >= 1, got {got!r}\n"

    @pytest.mark.parametrize("argv", [
        ["--out", "{path}", "gallery", "simple"],
        ["gallery", "simple", "--out", "{path}"],
        ["--format", "text", "gallery", "simple"],
        ["gallery", "star", "n=3", "--format", "json"],
    ])
    def test_report_options_need_tree_out(self, tmp_path, capsys, argv):
        # the document used to go to stdout, --out and --format ignored
        path = tmp_path / "g.json"
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert (code, out) == (1, "")
        assert err == "usage error: gallery takes --out and --format only with --tree-out\n"
        assert not path.exists()

    def test_tree_out_equal_to_out_exits_one(self, tmp_path, capsys):
        same = tmp_path / "same.out"
        code, out, err = run(capsys, "gallery", "simple", "--tree-out", str(same),
                             "--out", str(same))
        assert (code, out) == (1, "")
        assert err == "usage error: --tree-out and --out name the same file\n"
        assert not same.exists()

    def test_report_options_with_tree_out(self, tmp_path, capsys):
        tree_path, report_path = tmp_path / "s.tree", tmp_path / "report.txt"
        code, out, _ = run(capsys, "--format", "text", "gallery", "simple",
                           "--tree-out", str(tree_path), "--out", str(report_path))
        assert (code, out) == (0, "")
        assert "n_nodes: 4" in report_path.read_text().splitlines()
        assert parse_tree(tree_path.read_text()).tree.n_nodes == 4

    def test_infinite_spoke_len_exits_one(self, capsys):
        code, out, err = run(capsys, "gallery", "star", "n=3", "spoke_len=inf")
        assert (code, out) == (1, "")
        assert err == "error: parameter 'spoke_len' must be positive and finite, got inf\n"

    def test_report_to_file(self, tmp_path, capsys):
        tree_path = tmp_path / "s.tree"
        report_path = tmp_path / "report.json"
        run(capsys, "gallery", "star", "n=3", "--tree-out", str(tree_path))
        code, out, _ = run(
            capsys, "--out", str(report_path), "measure", str(tree_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(report_path.read_text())["command"] == "measure"


class TestInputText:
    """What the CLI makes of the bytes of its input file."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("m.tri", ["check", "{path}"]),
            ("m.tri", ["build", "{path}", "--tree-out", "{path}.tree"]),
            ("m.csv", ["check", "{path}"]),
            ("m.csv", ["build", "{path}", "--tree-out", "{path}.tree"]),
            ("t.tree", ["measure", "{path}"]),
            ("t.tree", ["cover", "{path}", "--radius", "0.9"]),
        ],
    )
    def test_byte_order_mark_is_stripped(self, name, argv, tmp_path, capsys):
        text = {
            "m.tri": "A\nB 2.0\nC 2.0 2.0\n",
            "m.csv": ",A,B\nA,0,1.5\nB,1.5,0\n",
            "t.tree": "edge 0 1 1.0\nedge 0 2 1.0\nedge 0 3 1.0\npoint A node 1\npoint B node 2\n",
        }[name]
        reports = []
        for folder, prefix in (("plain", ""), ("bom", "\ufeff")):
            path = tmp_path / folder / name
            path.parent.mkdir()
            path.write_text(prefix + text, encoding="utf-8")
            code, out, err = run(capsys, *(a.format(path=path) for a in argv))
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report.pop("input") == str(path)
            report.pop("tree_file", None)
            tree_out = path.parent / (name + ".tree")
            reports.append((report, tree_out.read_text() if tree_out.exists() else None))
        assert reports[0] == reports[1]
        assert "\ufeff" not in json.dumps(reports, ensure_ascii=False)

    @pytest.mark.parametrize("command", ["check", "build"])
    def test_oversized_csv_field_exits_one(self, command, tmp_path, capsys):
        matrix = tmp_path / "big.csv"
        matrix.write_text(",a\na," + "1" * 200_000 + "\n")
        argv = [command, str(matrix)] + (["--tree-out", str(tmp_path / "big.tree")]
                                         if command == "build" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "field limit" in err
        assert not (tmp_path / "big.tree").exists()

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("m.tri", ["check", "{path}"]),
            ("m.tri", ["build", "{path}", "--tree-out", "{dir}/out.tree"]),
            ("t.tree", ["measure", "{path}"]),
            ("t.tree", ["cover", "{path}", "--radius", "0.9"]),
            ("t.tree", ["kappa", "{path}", "--trials", "2"]),
        ],
    )
    def test_bytes_not_utf8_exit_one(self, name, argv, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes({"m.tri": b"A\nB 1.0\xff\n",
                          "t.tree": b"edge 0 1 1.0\npoint A\xff node 1\n"}[name])
        out_file = tmp_path / "report.json"
        argv = [a.format(path=path, dir=tmp_path) for a in argv] + ["--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert repr(str(path)) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_parser_reused_across_calls(tmp_path, capsys):
    """One cached parser gives the bytes and exit codes of a fresh one per
    call, with common flags before and after the subcommand."""
    matrix = tmp_path / "star.csv"
    write_star_matrix(matrix)
    tree = tmp_path / "star.tree"
    main(["gallery", "star", "n=3", "--tree-out", str(tree)])
    capsys.readouterr()
    calls = [
        ["check", str(matrix)],
        ["check"],  # usage error: no matrix
        ["--tol", "1e-6", "measure", str(tree), "--n", "2"],
        ["measure", str(tree), "--n", "2", "--tol", "1e-3"],
        ["check", str(matrix), "--format", "text"],
    ]

    def results(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            out.append(run(capsys, *argv))
        return out

    assert results(fresh=False) == results(fresh=True)
    assert [code for code, _, _ in results(fresh=False)] == [0, 1, 0, 0, 0]


REPORT_FIELDS = {  # argv and the command's own top-level fields
    "check": (["check", "{matrix}"], {"is_tree_metric", "labels"}),
    "build": (["build", "{matrix}", "--tree-out", "{dir}/built.tree"],
              {"built", "max_deviation", "n_nodes", "points", "tree_file"}),
    "measure": (["measure", "{tree}", "--n", "2"], {"points", "report"}),
    "cover-radius": (["cover", "{tree}", "--radius", "0.9"], {"cover", "mode", "points"}),
    "cover-diameter": (["cover", "{tree}", "--diameter", "1.8"], {"mode", "partition", "points"}),
    "kappa": (["kappa", "{tree}", "--trials", "2", "--seed", "1"], {"report", "seed"}),
    "gallery": (["gallery", "comb_compact", "n=2", "--tree-out", "{dir}/comb.tree"],
                {"name", "n_nodes", "point_names", "tree_file"}),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", REPORT_FIELDS)
def test_report_envelope(case, fmt, tmp_path, capsys):
    """Every report's top-level keys: schema, command and input (gallery
    reads no file, so it has no input), then the command's own fields.  A
    JSON report is ``json.dumps(indent=2, sort_keys=True)`` of what it reads
    back to."""
    matrix, tree = tmp_path / "star.csv", tmp_path / "star.tree"
    write_star_matrix(matrix, n=3)
    main(["gallery", "star", "n=3", "--tree-out", str(tree)])
    capsys.readouterr()
    template, own = REPORT_FIELDS[case]
    argv = [a.format(matrix=matrix, tree=tree, dir=tmp_path) for a in template]
    envelope = {"schema", "command"} if case == "gallery" else {"schema", "command", "input"}
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        report = json.loads(out)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert set(report) == envelope | own
        assert (report["schema"], report["command"]) == (1, argv[0])
        assert report.get("input") == (None if case == "gallery" else argv[1])
    else:
        top = [line.split(":", 1)[0] for line in out.splitlines() if not line.startswith(" ")]
        assert top == sorted(envelope | own)
        assert f"command: {argv[0]}" in out.splitlines()


class TestJsonWriter:
    """Reports against ``json.dumps(indent=2, sort_keys=True)``."""

    def test_reports_like_json_dumps(self, tmp_path, capsys):
        tree = tmp_path / "star.tree"
        main(["gallery", "star", "n=4", "--tree-out", str(tree)])
        for argv in (["measure", str(tree)], ["cover", str(tree), "--radius", "0.5"]):
            capsys.readouterr()
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
