from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from oracles import k4_consistent_unrealizable_k5
from sepdraw.cli import main
from sepdraw.cmap import serialize_cmap
from sepdraw.generators import random_two_page, random_two_page_minus
from sepdraw.rotation import convex, serialize_crs
from test_separability import LOW_DEGREE_K6


@pytest.fixture(scope="module")
def convex7(tmp_path_factory):
    p = tmp_path_factory.mktemp("crs") / "convex7.crs"
    p.write_text(serialize_crs(convex(7)))
    return str(p)


@pytest.fixture(scope="module")
def nonsep5(tmp_path_factory, tables):
    from sepdraw.enumeration import enumerate_good_drawings
    from sepdraw.separability import is_separable

    rep = next(
        r
        for r in enumerate_good_drawings(5)
        if not is_separable(tables, r.rs).separable
    )
    p = tmp_path_factory.mktemp("crs") / "nonsep5.crs"
    p.write_text(serialize_crs(rep.rs))
    return str(p)


class TestRecognize:
    def test_separable_exits_zero(self, convex7, capsys):
        assert main(["recognize", "--input", convex7]) == 0
        assert "separable" in capsys.readouterr().out

    def test_negative_answer_exits_one(self, nonsep5, capsys):
        assert main(["recognize", "--input", nonsep5]) == 1
        out = capsys.readouterr().out
        assert "not separable" in out

    def test_garbage_exits_two(self, tmp_path, capsys):
        p = tmp_path / "garbage.txt"
        p.write_text("this is not a rotation system\n")
        assert main(["recognize", "--input", str(p)]) == 2

    def test_missing_file_exits_two(self):
        assert main(["recognize", "--input", "/nonexistent.crs"]) == 2

    def test_directory_input_exits_two(self, tmp_path, capsys):
        assert main(["recognize", "--input", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "latin1.crs"
        p.write_bytes(b"n=3\n1: 2 3\n2: 1 3\n3: 1 2 \xe9\n")
        assert main(["recognize", "--input", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_multi_record_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "two.crs"
        p.write_text(serialize_crs([convex(5), convex(6)]))
        for cmd in ("recognize", "hamcycle", "matching", "gconvex"):
            assert main([cmd, "--input", str(p)]) == 2
            assert "one rotation-system record" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1000000000000", "1" + "0" * 30, "0", "-3"])
    def test_vertex_count_out_of_range_exits_two(self, tmp_path, n):
        p = tmp_path / "huge.crs"
        p.write_text(f"n={n}\n1: 2 3\n")
        assert main(["recognize", "--input", str(p)]) == 2

    def test_truncated_tables_exit_two(self, tmp_path, convex7, capsys):
        p = tmp_path / "bad.tbl"
        p.write_text("tables v1\nk5 5\n1\n")
        assert main(["recognize", "--input", convex7, "--tables", str(p)]) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("k5 member dropped", "absent"),
            ("k4 entry unreal", "4-vertex"),
            ("k4 pair code changed", "k4 entry 0 "),
            ("k5 emptied", "the convex K5"),
        ],
    )
    def test_inconsistent_tables_exit_two(
        self, tmp_path, convex7, capsys, corrupt, message
    ):
        """A corrupted copy of the shipped table that still parses."""
        lines = (
            resources.files("sepdraw.data").joinpath("tables.tbl")
            .read_text().splitlines()
        )
        p = tmp_path / "shipped.tbl"
        p.write_text("\n".join(lines) + "\n")
        assert main(["recognize", "--input", convex7, "--tables", str(p)]) == 0
        if corrupt == "k5 member dropped":
            i = next(i for i, ln in enumerate(lines) if ln.startswith("k5 "))
            lines[i] = f"k5 {int(lines[i].split()[1]) - 1}"
            del lines[i + 1]
        elif corrupt == "k5 emptied":
            i = next(i for i, ln in enumerate(lines) if ln.startswith("k5 "))
            lines[i:] = ["k5 0"]
        elif corrupt == "k4 pair code changed":
            i = lines.index("k4 0 cross 1")
            lines[i] = "k4 0 cross 2"
        else:
            i = next(i for i, ln in enumerate(lines) if ln.endswith(" none"))
            lines[i] = lines[i].replace(" none", " unreal")
        p = tmp_path / "bad.tbl"
        p.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["recognize", "--input", convex7, "--tables", str(p)]) == 2
        err = capsys.readouterr().err
        assert "inconsistent tables" in err and message in err

    def test_certificate_json(self, convex7, capsys):
        assert (
            main(["recognize", "--input", convex7, "--certificate", "--json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["separable"] is True
        assert doc["result"]["certificate"]["1,2"] == "uncrossed"

    def test_json_stdout_is_byte_identical(self, convex7, capsys):
        main(["recognize", "--input", convex7, "--json"])
        first = capsys.readouterr().out
        main(["recognize", "--input", convex7, "--json"])
        assert capsys.readouterr().out == first

    def test_reused_parser_keeps_no_state(
        self, convex7, nonsep5, tmp_path, capsys
    ):
        # main() builds its parser once per process; a subcommand's
        # options must not leak into the next call
        m, _, _, _ = random_two_page(5, random.Random(73))
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        calls = [
            ["recognize", "--input", convex7, "--json"],
            ["verify", "--input", str(p), "--json"],
            ["recognize", "--input", nonsep5, "--certificate", "--json"],
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        first = [run(argv) for argv in calls]
        assert [code for code, _ in first] == [0, 0, 1]
        assert [run(argv) for argv in calls] == first


class TestFlips:
    def test_fig_style_query(self, convex7, capsys):
        assert main(["flips", "--input", convex7, "--edge", "2,6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["candidates"] == [[1, 7], [3, 4, 5]]
        assert len(doc["result"]["valid_flips"]) == 1
        assert doc["result"]["valid_flips"][0]["swept"] == [1, 7]

    def test_bad_edge_syntax(self, convex7):
        assert main(["flips", "--input", convex7, "--edge", "2-6"]) == 2

    @pytest.mark.parametrize("edge", ["1,99", "0,2", "-1,3", "3,3", "--"])
    def test_bad_edge_exits_two(self, convex7, edge, capsys):
        assert main(["flips", "--input", convex7, "--edge=" + edge]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestHamiltonian:
    def test_hampath_verified(self, convex7, capsys):
        code = main(
            [
                "hampath", "--input", convex7,
                "--from", "1", "--to", "4", "--verify", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["verified"] is True
        assert doc["result"]["path"][0] == 1 and doc["result"]["path"][-1] == 4

    def test_hamcycle(self, convex7, capsys):
        assert main(["hamcycle", "--input", convex7, "--verify"]) == 0

    def test_matching(self, convex7, capsys):
        assert main(["matching", "--input", convex7, "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["size"] >= 1

    def test_stuck_instance_exits_one(self, tmp_path):
        p = tmp_path / "low.crs"
        p.write_text(serialize_crs(LOW_DEGREE_K6))
        assert (
            main(["hampath", "--input", str(p), "--from", "1", "--to", "6"])
            == 1
        )


class TestGconvex:
    def test_positive(self, convex7):
        assert main(["gconvex", "--input", convex7]) == 0

    def test_negative(self, tmp_path):
        from test_rotation import REROUTED_K5

        p = tmp_path / "r.crs"
        p.write_text(serialize_crs(REROUTED_K5))
        assert main(["gconvex", "--input", str(p)]) == 1


class TestUnrealizableInput:
    """Every rotation-system subcommand rejects an unrealizable system as
    bad input, also when all its 4-vertex subsystems are realizable."""

    def test_k4_consistent_k5_exits_two(self, tables, tmp_path, capsys):
        systems = k4_consistent_unrealizable_k5(tables)
        assert len(systems) == 72
        commands = [
            ["recognize", "--certificate"],
            ["flips", "--edge", "1,2"],
            ["hampath", "--from", "1", "--to", "3", "--verify"],
            ["hamcycle", "--verify"],
            ["matching", "--verify"],
            ["gconvex"],
        ]
        p = tmp_path / "k5.crs"
        for rs in systems:
            p.write_text(serialize_crs(rs))
            for cmd, *rest in commands:
                assert main([cmd, "--input", str(p), *rest]) == 2, (cmd, rs)
                err = capsys.readouterr().err
                assert "input rotation system is not realizable" in err
                assert "Traceback" not in err


class TestEnumerateAndTables:
    def test_enumerate_writes_records(self, tmp_path, capsys):
        out = tmp_path / "k4.crs"
        assert (
            main(["enumerate", "--n", "4", "--out", str(out), "--json"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["orbits"] == 2
        from sepdraw.rotation import parse_crs

        assert len(parse_crs(out.read_text())) == 2

    def test_enumerate_7_needs_extended_flag(self, capsys):
        assert main(["enumerate", "--n", "7"]) == 2

    def test_tables_roundtrip(self, tmp_path, tables):
        assert main(["tables", "--out", str(tmp_path)]) == 0
        from sepdraw.enumeration import parse_tables, serialize_tables

        text = (tmp_path / "tables.tbl").read_text()
        assert parse_tables(text) == tables
        assert text == serialize_tables(tables)


class TestMapCommands:
    def test_verify_and_witness(self, tmp_path, capsys):
        rng = random.Random(73)
        m, _, _, _ = random_two_page(5, rng)
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        assert main(["verify", "--input", str(p)]) == 0
        assert main(["witness", "--input", str(p), "--edge", "1,2"]) == 0

    def test_extend_cli(self, tmp_path, capsys):
        rng = random.Random(79)
        m, _, _ = random_two_page_minus(6, 6, rng)
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        out = tmp_path / "full.cmap"
        code = main(
            [
                "extend", "--input", str(p), "--mode", "separable",
                "--out", str(out), "--log-potential", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["inserted"]
        from sepdraw.cmap import parse_cmap, validate_map

        assert validate_map(parse_cmap(out.read_text())) == []

    def test_extend_rejects_missing_witnesses(self, tmp_path):
        from sepdraw.cmap import from_two_page

        m, _ = from_two_page(
            [1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2, witnesses=False
        )
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        assert main(["extend", "--input", str(p), "--mode", "separable"]) == 2

    def test_verify_rejects_a_wrong_real_header(self, tmp_path, capsys):
        m, _, _, _ = random_two_page(3, random.Random(0))
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m).replace("real 3\n", "real 7\n", 1))
        assert main(["verify", "--input", str(p)]) == 2
        assert "'real 7' but 3 real vertex lines" in capsys.readouterr().err

    def test_repeated_real_label(self, tmp_path, capsys):
        """Real vertices labelled 1, 2, 3, 1 joined by a path that draws
        the edges 1-2, 2-3 and 3-1: a path, not a K3."""
        p = tmp_path / "path.cmap"
        p.write_text(
            "cmap v1\nreal 4\n"
            "vertex 0 real 1 : 0\nvertex 1 real 2 : 1 2\n"
            "vertex 2 real 3 : 3 4\nvertex 3 real 1 : 5\n"
            "segment 0 1 curve 0 idx 0\nsegment 2 3 curve 1 idx 0\n"
            "segment 4 5 curve 2 idx 0\n"
            "curve 0 edge 1-2\ncurve 1 edge 2-3\ncurve 2 edge 3-1\n"
        )
        assert main(["verify", "--input", str(p)]) == 1
        out = capsys.readouterr().out
        assert "real vertex 1 repeats the label 1 of real vertex 0" in out
        assert main(["extend", "--input", str(p), "--mode", "crossmin"]) == 2
        assert "repeats the label 1" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2


# sha256 of `sepdraw --help` and of each subcommand's --help at 80
# columns (argparse wraps help to the terminal width)
HELP_SHA256 = {
    "": "02eaa07582ab972251f1734614a6492a12c8e195e4f2c73830a6c2e63be3f5dc",
    "recognize":
        "a53706036d49f1464da4064a53e48cb8a4b9280e357e54af18ad32f065461d8d",
    "flips":
        "40e68cc45fc09d02c2afb0ba19dd7e5e46563693dcbd1ad3255cf30a0a8eaa6b",
    "hampath":
        "d15613cd1987cae6a33d4ac52c2695fac24c5e53919a5c2f291c40d4e49bec42",
    "hamcycle":
        "3463b546868b101eec0542650bb4ce009b1262e642b4db512d0b71f8a859c5ef",
    "matching":
        "382c549750514ed568f55f80d5ce6e88c165921d77647668babc9c596f26770b",
    "gconvex":
        "e5dc0423b3faf31973b3e76a32f893a70ea73c0db8aa1de4ca0f91731ae33f02",
    "enumerate":
        "1378a0cb53373c5e8059e91a2a13e897b80de3519495d0a946519e87a890c635",
    "tables":
        "638b905904da827e306c24a929e6d721d231401f74f72219a765dc529bf27faa",
    "witness":
        "329cb2c867dc08f2e90673be59940c5c14fa85faccdeca403e557c967f67688d",
    "verify":
        "fe1afe2aa6b2473080c50e283bc256c7973809dbe43d9916b4a24d94a5f2c547",
    "extend":
        "2b8899914888c7622cf419bca549fb57668df2504c705a2078a5f62414d4c598",
}


@pytest.mark.parametrize("cmd", list(HELP_SHA256))
def test_help_is_pinned(cmd, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([cmd, "--help"] if cmd else ["--help"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[cmd]


def test_library_does_not_load_numpy():
    # numpy is a test dependency only; the CLI must run without it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sepdraw.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
